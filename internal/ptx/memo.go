package ptx

import "sync"

// memo holds what other layers derive from one kernel: the simulator's
// program per SIMD width, a result's report bytes. It hangs off the Kernel,
// so it lives exactly as long as the kernel does, and owner ties it to the
// kernel that created it: a Kernel copied by value carries the pointer along,
// but the copy (which may then be edited) never reads its original's values.
type memo struct {
	owner *Kernel
	mu    sync.Mutex
	vals  map[any]any
}

// Memo returns the value derived from k under key, calling build on the
// first request. Kernels are immutable once compiled, so a derived value
// stays valid for the kernel's lifetime. build runs under no lock: callers
// racing on a cold key each build, the first to finish is kept, and every
// caller gets that one. Keys are compared with ==, so a caller should key
// with a type of its own.
func (k *Kernel) Memo(key any, build func() any) any {
	m := k.memo()
	m.mu.Lock()
	v, ok := m.vals[key]
	m.mu.Unlock()
	if ok {
		return v
	}
	v = build()
	m.mu.Lock()
	defer m.mu.Unlock()
	if kept, ok := m.vals[key]; ok {
		return kept
	}
	if m.vals == nil {
		m.vals = make(map[any]any)
	}
	m.vals[key] = v
	return v
}

// memo returns k's own memo, creating it on first use. The field is an
// atomic.Value rather than an atomic.Pointer, whose noCopy marker would make
// every copy of a Kernel a vet error.
func (k *Kernel) memo() *memo {
	for {
		cur := k.derived.Load()
		if m, _ := cur.(*memo); m != nil && m.owner == k {
			return m
		}
		fresh := &memo{owner: k}
		if k.derived.CompareAndSwap(cur, fresh) {
			return fresh
		}
	}
}
