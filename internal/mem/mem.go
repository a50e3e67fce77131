// Package mem models the device memory system: flat global memory with a
// bump allocator, the constant segment, direct-mapped caches (texture,
// constant, Fermi L1/L2), per-warp coalescing analysis, and shared-memory
// bank-conflict accounting. The SIMT engine in internal/sim routes every
// access through these mechanisms, so cache hit rates and transaction
// counts emerge from the actual access streams of each benchmark rather
// than from fixed per-benchmark constants.
package mem

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// WordBytes is the access granularity of the model: every value is a
// 32-bit word and addresses are byte addresses aligned to 4.
const WordBytes = 4

// pageWords is the granule of the stray table and of the committed
// prefix's growth (4 KiB). The prefix always ends on a page boundary or at
// the end of the window, so a stray page never straddles it.
const pageWords = 1024

// Memory is a flat byte-addressed global memory of 32-bit words. Host
// memory is committed in proportion to use: words is a zeroed prefix that
// always covers every allocated byte, and the rest of the addressable
// window — which a correct kernel never touches — is served page by page
// from a sparse side table, so an access there keeps its flat-memory
// semantics (reads see 0 until written, writes stick, atomics work)
// without the window ever being backed in full.
//
// Concurrent access from different compute-unit goroutines is safe only on
// disjoint words or through the Atomic methods. Alloc replaces words and
// must not run concurrently with any access (allocation is host-side work
// between launches).
type Memory struct {
	words []uint32 // committed prefix
	size  uint32   // addressable window in bytes
	brk   uint32

	mu    sync.Mutex
	stray map[uint32]*[pageWords]uint32 // by page number; pages past words only
}

// NewMemory returns a memory addressing the given number of bytes (rounded
// down to a whole word). Nothing is committed until Alloc or a store asks.
func NewMemory(bytes uint32) *Memory {
	return &Memory{size: bytes &^ (WordBytes - 1)}
}

// Size returns the capacity in bytes.
func (m *Memory) Size() uint32 { return m.size }

// Alloc reserves n bytes (rounded up to words, 256-byte aligned like real
// device allocators) and returns the base byte address.
func (m *Memory) Alloc(n uint32) (uint32, error) {
	const align = 256
	base := (m.brk + align - 1) &^ uint32(align-1)
	if n > m.Size() || base > m.Size()-n {
		return 0, fmt.Errorf("mem: out of device memory (%d bytes requested, %d in use)", n, m.brk)
	}
	m.brk = base + n
	m.commit((int(m.brk) + WordBytes - 1) / WordBytes)
	return base, nil
}

// doubleBelow is the prefix length (1 MiB) past which commit grows by a
// quarter instead of doubling, as append does for large slices: a 16 MiB
// buffer followed by a small one commits 20 MiB, not 32.
const doubleBelow = 256 * pageWords

// commit grows the committed prefix to at least need words: doubling below
// doubleBelow and by a quarter from there, in whole pages, capped at the
// window. Stray pages the prefix now covers move into it, so words stored
// past the old prefix keep their values.
func (m *Memory) commit(need int) {
	if need <= len(m.words) {
		return
	}
	grow := len(m.words)
	if grow >= doubleBelow {
		grow /= 4
	}
	n := max(need, len(m.words)+grow)
	n = min((n+pageWords-1)/pageWords*pageWords, int(m.size/WordBytes))
	grown := make([]uint32, n)
	copy(grown, m.words)
	for p, pg := range m.stray {
		if at := int(p) * pageWords; at < n {
			copy(grown[at:], pg[:])
			delete(m.stray, p)
		}
	}
	m.words = grown
}

// InUse returns the number of allocated bytes.
func (m *Memory) InUse() uint32 { return m.brk }

// check validates addr against the addressable window (alignment first,
// the order faults have always surfaced in) and returns its word index.
func (m *Memory) check(addr uint32) (uint32, error) {
	if addr%WordBytes != 0 {
		return 0, fmt.Errorf("mem: unaligned access at 0x%x", addr)
	}
	if addr >= m.size {
		return 0, fmt.Errorf("mem: access at 0x%x beyond device memory (%d bytes)", addr, m.Size())
	}
	return addr / WordBytes, nil
}

// strayWord returns the slot of stray-window word i, or nil when its page
// was never written and create is false. The caller holds m.mu.
func (m *Memory) strayWord(i uint32, create bool) *uint32 {
	pg := m.stray[i/pageWords]
	if pg == nil {
		if !create {
			return nil
		}
		if m.stray == nil {
			m.stray = make(map[uint32]*[pageWords]uint32)
		}
		pg = new([pageWords]uint32)
		m.stray[i/pageWords] = pg
	}
	return &pg[i%pageWords]
}

// strayAccess is the slow path of every single-word accessor: the access
// missed the committed prefix, so it faults (unaligned, beyond the device)
// or lands in the stray window. It returns the word's old value and, when
// f is non-nil, replaces it with f(old).
func (m *Memory) strayAccess(addr uint32, f func(old uint32) uint32) (uint32, error) {
	i, err := m.check(addr)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.strayWord(i, f != nil)
	if p == nil {
		return 0, nil
	}
	old := *p
	if f != nil {
		*p = f(old)
	}
	return old, nil
}

// Load reads the word at the byte address.
func (m *Memory) Load(addr uint32) (uint32, error) {
	if i := int(addr / WordBytes); addr%WordBytes == 0 && i < len(m.words) {
		return m.words[i], nil
	}
	return m.strayAccess(addr, nil)
}

// Store writes the word at the byte address.
func (m *Memory) Store(addr uint32, v uint32) error {
	if i := int(addr / WordBytes); addr%WordBytes == 0 && i < len(m.words) {
		m.words[i] = v
		return nil
	}
	_, err := m.strayAccess(addr, func(uint32) uint32 { return v })
	return err
}

// Atomic applies f atomically to the word at addr and returns the old
// value. It is implemented with a CAS loop so arbitrary read-modify-write
// operations compose with concurrent compute units.
func (m *Memory) Atomic(addr uint32, f func(old uint32) uint32) (uint32, error) {
	i := int(addr / WordBytes)
	if addr%WordBytes != 0 || i >= len(m.words) {
		return m.strayAccess(addr, f)
	}
	p := &m.words[i]
	for {
		old := atomic.LoadUint32(p)
		if atomic.CompareAndSwapUint32(p, old, f(old)) {
			return old, nil
		}
	}
}

// Gather loads the word at addrs[l] into dst[l] for every l, lane 0
// upward — the order (and therefore the error surfaced when several lanes
// are out of range) matches a per-lane Load loop exactly. It exists for
// the fully-active warp accesses of the block-compiled engine, where one
// bounds-checked pass replaces len(addrs) Load calls.
func (m *Memory) Gather(addrs []uint32, dst []uint32) error {
	words := m.words
	for l, a := range addrs {
		i := int(a / WordBytes)
		if a%WordBytes != 0 || i >= len(words) {
			v, err := m.strayAccess(a, nil)
			if err != nil {
				return err
			}
			dst[l] = v
		} else {
			dst[l] = words[i]
		}
	}
	return nil
}

// Scatter stores src[l] to addrs[l] for every l, lane 0 upward; on lane
// collisions the highest lane wins, exactly like a per-lane Store loop.
func (m *Memory) Scatter(addrs []uint32, src []uint32) error {
	words := m.words
	for l, a := range addrs {
		i := int(a / WordBytes)
		if a%WordBytes != 0 || i >= len(words) {
			v := src[l]
			if _, err := m.strayAccess(a, func(uint32) uint32 { return v }); err != nil {
				return err
			}
		} else {
			words[i] = src[l]
		}
	}
	return nil
}

// span validates a bulk transfer of n words at addr (verb names it in the
// overrun error) and splits it at the committed boundary: the first `in`
// words live in m.words from index i, the rest in the stray window.
func (m *Memory) span(verb string, addr uint32, n int) (i, in int, err error) {
	w, err := m.check(addr)
	if err != nil {
		return 0, 0, err
	}
	i = int(w)
	if i+n > int(m.size/WordBytes) {
		return 0, 0, fmt.Errorf("mem: %s of %d words at 0x%x overruns device memory", verb, n, addr)
	}
	return i, max(0, min(n, len(m.words)-i)), nil
}

// WriteWords copies src into device memory starting at addr.
func (m *Memory) WriteWords(addr uint32, src []uint32) error {
	i, in, err := m.span("write", addr, len(src))
	if err != nil {
		return err
	}
	if in > 0 {
		copy(m.words[i:], src[:in])
	}
	if rest := src[in:]; len(rest) > 0 {
		m.mu.Lock()
		defer m.mu.Unlock()
		for k, v := range rest {
			*m.strayWord(uint32(i+in+k), true) = v
		}
	}
	return nil
}

// ZeroWords clears n words starting at addr: what WriteWords of n zeros
// does, without a host slice of zeros. Stray pages in the range are
// cleared in place; a stray word never written already reads 0.
func (m *Memory) ZeroWords(addr uint32, n int) error {
	i, in, err := m.span("write", addr, n)
	if err != nil {
		return err
	}
	if in > 0 {
		clear(m.words[i : i+in])
	}
	if n > in {
		m.mu.Lock()
		defer m.mu.Unlock()
		for w, end := i+in, i+n; w < end; {
			off := w % pageWords
			k := min(pageWords-off, end-w)
			if pg := m.stray[uint32(w/pageWords)]; pg != nil {
				clear(pg[off : off+k])
			}
			w += k
		}
	}
	return nil
}

// ReadWords copies device words into dst starting at addr.
func (m *Memory) ReadWords(addr uint32, dst []uint32) error {
	i, in, err := m.span("read", addr, len(dst))
	if err != nil {
		return err
	}
	if in > 0 {
		copy(dst[:in], m.words[i:])
	}
	if rest := dst[in:]; len(rest) > 0 {
		m.mu.Lock()
		defer m.mu.Unlock()
		for k := range rest {
			rest[k] = 0
			if p := m.strayWord(uint32(i+in+k), false); p != nil {
				rest[k] = *p
			}
		}
	}
	return nil
}
