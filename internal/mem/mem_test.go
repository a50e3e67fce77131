package mem

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestAllocAlignmentAndExhaustion(t *testing.T) {
	m := NewMemory(4096)
	a, err := m.Alloc(100)
	if err != nil || a%256 != 0 {
		t.Fatalf("first alloc: %v, addr %d", err, a)
	}
	b, err := m.Alloc(100)
	if err != nil || b%256 != 0 || b <= a {
		t.Fatalf("second alloc: %v, addr %d", err, b)
	}
	if _, err := m.Alloc(1 << 20); err == nil {
		t.Error("oversized alloc should fail")
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	m := NewMemory(1024)
	if err := m.Store(16, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	v, err := m.Load(16)
	if err != nil || v != 0xdeadbeef {
		t.Fatalf("Load = %x, %v", v, err)
	}
	if _, err := m.Load(2); err == nil {
		t.Error("unaligned load should fail")
	}
	if err := m.Store(4096, 1); err == nil {
		t.Error("out-of-range store should fail")
	}
}

func TestWriteReadWords(t *testing.T) {
	m := NewMemory(1024)
	src := []uint32{1, 2, 3, 4}
	if err := m.WriteWords(8, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint32, 4)
	if err := m.ReadWords(8, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("round trip failed at %d", i)
		}
	}
	if err := m.WriteWords(1020, src); err == nil {
		t.Error("overrunning write should fail")
	}
}

func TestAtomicRMW(t *testing.T) {
	m := NewMemory(64)
	old, err := m.Atomic(0, func(o uint32) uint32 { return o + 5 })
	if err != nil || old != 0 {
		t.Fatalf("atomic: old=%d err=%v", old, err)
	}
	v, _ := m.Load(0)
	if v != 5 {
		t.Errorf("after atomic add: %d, want 5", v)
	}
}

// TestGatherScatterMatchPerLane pins the bulk warp accessors to a
// per-lane Load/Store loop: same values, same lane (0-upward) walk order,
// therefore the same surfaced error and the same partial side effects
// when a mid-warp lane faults, and last-lane-wins on scatter collisions.
func TestGatherScatterMatchPerLane(t *testing.T) {
	m := NewMemory(256)
	addrs := []uint32{0, 8, 8, 4, 252}
	src := []uint32{10, 20, 30, 40, 50}
	if err := m.Scatter(addrs, src); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Load(8); v != 30 {
		t.Errorf("scatter collision: got %d at 0x8, want the higher lane's 30", v)
	}
	dst := make([]uint32, len(addrs))
	if err := m.Gather(addrs, dst); err != nil {
		t.Fatal(err)
	}
	want := []uint32{10, 30, 30, 40, 50}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("gather lane %d: got %d, want %d", i, dst[i], want[i])
		}
	}

	// Faulting lanes: the first bad lane's error must be byte-identical to
	// the per-lane path's, and scatter must keep the stores issued before
	// the fault, exactly like a per-lane loop.
	for _, bad := range []struct {
		addr uint32
		name string
	}{{2, "unaligned"}, {1 << 20, "out of range"}} {
		m2 := NewMemory(256)
		faulty := []uint32{0, 4, bad.addr, 8}
		_, wantErr := m2.Load(bad.addr)
		if wantErr == nil {
			t.Fatalf("%s probe did not fault", bad.name)
		}
		if err := m2.Gather(faulty, make([]uint32, 4)); err == nil || err.Error() != wantErr.Error() {
			t.Errorf("%s gather error: got %v, want %v", bad.name, err, wantErr)
		}
		err := m2.Scatter(faulty, []uint32{1, 2, 3, 4})
		if err == nil || err.Error() != wantErr.Error() {
			t.Errorf("%s scatter error: got %v, want %v", bad.name, err, wantErr)
		}
		if v, _ := m2.Load(4); v != 2 {
			t.Errorf("%s scatter: store before the faulting lane lost (got %d, want 2)", bad.name, v)
		}
		if v, _ := m2.Load(8); v != 0 {
			t.Errorf("%s scatter: store after the faulting lane happened (got %d, want 0)", bad.name, v)
		}
	}
}

// The access-pattern tables for CoalesceSegments, CoalesceList,
// DistinctAddrs, BankConflictFactor and ActiveLanes live in
// coalesce_test.go; here only the property-based cross-check remains.
func TestCoalesceListMatchesCount(t *testing.T) {
	f := func(raw [32]uint16, mask uint64) bool {
		addrs := make([]uint32, 32)
		for i, r := range raw {
			addrs[i] = uint32(r) * 4
		}
		var out [64]uint32
		n := CoalesceList(addrs, mask, 64, out[:])
		return n == CoalesceSegments(addrs, mask, 64)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCacheBasics(t *testing.T) {
	c := NewCache(1024, 64)
	if c.Access(0) {
		t.Error("cold access should miss")
	}
	if !c.Access(4) {
		t.Error("same-line access should hit")
	}
	// 1024/64 = 16 sets; address 1024 maps onto set 0 again -> evicts.
	c.Access(1024)
	if c.Access(0) {
		t.Error("evicted line should miss")
	}
	if c.Hits != 1 || c.Misses != 3 {
		t.Errorf("hits/misses = %d/%d, want 1/3", c.Hits, c.Misses)
	}
	if r := c.HitRate(); r != 0.25 {
		t.Errorf("hit rate = %g, want 0.25", r)
	}
	c.Invalidate()
	if c.Access(1024) {
		t.Error("access after invalidate should miss")
	}
}

// strayMem returns a 1 MiB window with one page committed, so addresses
// from 4 KiB up are in the stray window.
func strayMem(t *testing.T) *Memory {
	t.Helper()
	m := NewMemory(1 << 20)
	if _, err := m.Alloc(64); err != nil {
		t.Fatal(err)
	}
	if got := len(m.words); got != pageWords {
		t.Fatalf("committed %d words after a 64-byte Alloc, want one page (%d)", got, pageWords)
	}
	return m
}

// TestStrayWindow pins flat-memory semantics past the committed prefix:
// every address below Size() reads 0 until written, keeps what is stored,
// supports atomics, and survives the prefix growing over it.
func TestStrayWindow(t *testing.T) {
	const stray = 0x8000 // page 8: well past the committed page
	load := func(t *testing.T, m *Memory, addr uint32) uint32 {
		t.Helper()
		v, err := m.Load(addr)
		if err != nil {
			t.Fatalf("Load(0x%x): %v", addr, err)
		}
		return v
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, m *Memory)
	}{
		{"unwritten word loads 0 and commits nothing", func(t *testing.T, m *Memory) {
			if v := load(t, m, stray); v != 0 {
				t.Errorf("got %d, want 0", v)
			}
			if len(m.stray) != 0 || len(m.words) != pageWords {
				t.Errorf("a load committed memory: %d stray pages, %d words", len(m.stray), len(m.words))
			}
		}},
		{"store then load round-trips", func(t *testing.T, m *Memory) {
			if err := m.Store(stray, 7); err != nil {
				t.Fatal(err)
			}
			if v := load(t, m, stray); v != 7 {
				t.Errorf("got %d, want 7", v)
			}
			if v := load(t, m, stray+4); v != 0 {
				t.Errorf("neighbour of a stored word reads %d, want 0", v)
			}
			last := m.Size() - 4
			if err := m.Store(last, 9); err != nil {
				t.Fatal(err)
			}
			if v := load(t, m, last); v != 9 {
				t.Errorf("last word of the window: got %d, want 9", v)
			}
		}},
		{"atomic returns old and applies f", func(t *testing.T, m *Memory) {
			for want := uint32(0); want < 3; want++ {
				old, err := m.Atomic(stray, func(o uint32) uint32 { return o + 1 })
				if err != nil || old != want {
					t.Fatalf("Atomic: old=%d err=%v, want old=%d", old, err, want)
				}
			}
			if v := load(t, m, stray); v != 3 {
				t.Errorf("after three increments: %d", v)
			}
		}},
		{"Alloc growing over stray words keeps them", func(t *testing.T, m *Memory) {
			if err := m.Store(stray, 11); err != nil {
				t.Fatal(err)
			}
			if err := m.Store(stray+pageWords*WordBytes, 12); err != nil {
				t.Fatal(err)
			}
			far := m.Size() - 4
			if err := m.Store(far, 13); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Alloc(stray + 2*pageWords*WordBytes); err != nil {
				t.Fatal(err)
			}
			if int(m.InUse()) > len(m.words)*WordBytes {
				t.Fatalf("prefix of %d words does not cover %d allocated bytes", len(m.words), m.InUse())
			}
			if len(m.stray) != 1 {
				t.Errorf("%d stray pages left, want only the far one", len(m.stray))
			}
			for addr, want := range map[uint32]uint32{stray: 11, stray + pageWords*WordBytes: 12, far: 13} {
				if v := load(t, m, addr); v != want {
					t.Errorf("0x%x reads %d after growth, want %d", addr, v, want)
				}
			}
		}},
		{"WriteWords and ReadWords span the committed boundary", func(t *testing.T, m *Memory) {
			src := []uint32{1, 2, 3, 4, 5, 6}
			at := uint32(pageWords*WordBytes - 8) // two words committed, four stray
			if err := m.WriteWords(at, src); err != nil {
				t.Fatal(err)
			}
			dst := []uint32{9, 9, 9, 9, 9, 9, 9, 9}
			if err := m.ReadWords(at, dst); err != nil {
				t.Fatal(err)
			}
			for i, want := range []uint32{1, 2, 3, 4, 5, 6, 0, 0} {
				if dst[i] != want {
					t.Errorf("word %d: got %d, want %d", i, dst[i], want)
				}
			}
			for i, want := range src {
				if v := load(t, m, at+uint32(4*i)); v != want {
					t.Errorf("Load of word %d: got %d, want %d", i, v, want)
				}
			}
		}},
		{"ZeroWords clears across the committed boundary", func(t *testing.T, m *Memory) {
			at := uint32(pageWords*WordBytes - 8) // two words committed, the rest stray
			if err := m.WriteWords(at, []uint32{1, 2, 3, 4, 5, 6}); err != nil {
				t.Fatal(err)
			}
			far := at + 3*pageWords*WordBytes // a stray page past one never written
			if err := m.Store(far, 7); err != nil {
				t.Fatal(err)
			}
			// From word 1 through far: keeps word 0 and the word after far.
			n := int(far-at)/WordBytes + 1
			if err := m.Store(far+4, 8); err != nil {
				t.Fatal(err)
			}
			pages := len(m.stray)
			if err := m.ZeroWords(at+4, n-1); err != nil {
				t.Fatal(err)
			}
			if len(m.stray) != pages {
				t.Errorf("ZeroWords left %d stray pages, want the %d written ones", len(m.stray), pages)
			}
			for addr, want := range map[uint32]uint32{at: 1, at + 4: 0, at + 8: 0, at + 20: 0, far: 0, far + 4: 8} {
				if v := load(t, m, addr); v != want {
					t.Errorf("0x%x reads %d after ZeroWords, want %d", addr, v, want)
				}
			}
			werr := m.WriteWords(m.Size()-4, make([]uint32, 2))
			if err := m.ZeroWords(m.Size()-4, 2); err == nil || err.Error() != werr.Error() {
				t.Errorf("overrunning ZeroWords: err = %v, want WriteWords's %v", err, werr)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, strayMem(t)) })
	}
}

// TestLargePrefixGrowsByAQuarter pins SHOC DeviceMemory's two allocations
// at scale 2: a 16 MiB buffer, then a 512 KiB one. Past doubleBelow the
// prefix grows by a quarter, so 20 MiB are committed, not 32.
func TestLargePrefixGrowsByAQuarter(t *testing.T) {
	m := NewMemory(64 << 20)
	for _, n := range []uint32{16 << 20, 512 << 10} {
		if _, err := m.Alloc(n); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := len(m.words), 5<<20; got != want {
		t.Errorf("committed %d words after 16 MiB + 512 KiB, want %d (20 MiB)", got, want)
	}
}

// TestAllocCommitsAmortised: below doubleBelow the prefix doubles; it
// covers every allocation and stops at the window.
func TestAllocCommitsAmortised(t *testing.T) {
	m := NewMemory(1 << 20)
	if len(m.words) != 0 {
		t.Fatalf("a new memory committed %d words", len(m.words))
	}
	grows, last := 0, 0
	for m.InUse() < m.Size()-256 {
		if _, err := m.Alloc(256); err != nil {
			t.Fatal(err)
		}
		if int(m.InUse()) > len(m.words)*WordBytes {
			t.Fatalf("prefix of %d words does not cover %d allocated bytes", len(m.words), m.InUse())
		}
		if len(m.words) != last {
			grows, last = grows+1, len(m.words)
		}
	}
	if last*WordBytes != int(m.Size()) {
		t.Errorf("prefix ended at %d bytes, want the %d-byte window", last*WordBytes, m.Size())
	}
	if grows > 10 { // 4 KiB doubling to 1 MiB is 9 steps
		t.Errorf("prefix grew %d times over 4096 allocations; want doubling", grows)
	}
}

// TestGatherScatterParityWithStrayLanes runs the same lane vectors through
// Gather/Scatter on one memory and through a per-lane Load/Store loop on
// another, and requires the same values, the same first-fault error and the
// same final image — with lanes in the committed prefix, in the stray
// window, colliding, unaligned and beyond the device.
func TestGatherScatterParityWithStrayLanes(t *testing.T) {
	const window = 1 << 16
	probes := []uint32{0, 4, 8, 0x1000, 0x1004, 0x8000, 0x8004, window - 4}
	for _, tc := range []struct {
		name  string
		addrs []uint32
	}{
		{"committed only", []uint32{0, 4, 8, 4}},
		{"stray only", []uint32{0x8000, 0x8004, 0x8000, window - 4}},
		{"mixed", []uint32{0, 0x8000, 4, 0x1000, 0x8004}},
		{"unaligned after stray", []uint32{0x8000, 0, 0x8002, 4}},
		{"beyond after stray", []uint32{0, 0x8000, window, 4}},
		{"unaligned before beyond", []uint32{0x1000, 6, window + 4}},
		{"beyond before unaligned", []uint32{0x1000, window + 4, 6}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bulk, lane := NewMemory(window), NewMemory(window)
			for _, m := range []*Memory{bulk, lane} {
				if _, err := m.Alloc(64); err != nil {
					t.Fatal(err)
				}
			}
			src := make([]uint32, len(tc.addrs))
			for l := range src {
				src[l] = uint32(100 + l)
			}
			var wantErr error
			for l, a := range tc.addrs {
				if wantErr = lane.Store(a, src[l]); wantErr != nil {
					break
				}
			}
			sameErr(t, "Scatter", bulk.Scatter(tc.addrs, src), wantErr)

			got, want := make([]uint32, len(tc.addrs)), make([]uint32, len(tc.addrs))
			wantErr = nil
			for l, a := range tc.addrs {
				if want[l], wantErr = lane.Load(a); wantErr != nil {
					break
				}
			}
			sameErr(t, "Gather", bulk.Gather(tc.addrs, got), wantErr)
			for l := range want {
				if got[l] != want[l] {
					t.Errorf("gather lane %d: got %d, want %d", l, got[l], want[l])
				}
			}
			for _, a := range probes {
				g, _ := bulk.Load(a)
				w, _ := lane.Load(a)
				if g != w {
					t.Errorf("image at 0x%x: bulk %d, per-lane %d", a, g, w)
				}
			}
		})
	}
}

func sameErr(t *testing.T, what string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
		t.Errorf("%s error: got %v, want %v", what, got, want)
	}
}

// TestConcurrentStrayStores: compute-unit goroutines that all run past
// their buffers at once. Disjoint words by Store, one shared word by
// Atomic; run under -race.
func TestConcurrentStrayStores(t *testing.T) {
	m := strayMem(t)
	const workers, perWorker = 8, 512
	const base, counter = 0x10000, 0x8000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				// Interleaved, so every page is shared by every worker.
				addr := uint32(base + 4*(k*workers+w))
				if err := m.Store(addr, uint32(w<<16|k)); err != nil {
					t.Error(err)
					return
				}
				if _, err := m.Atomic(counter, func(o uint32) uint32 { return o + 1 }); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		for k := 0; k < perWorker; k++ {
			if v, _ := m.Load(uint32(base + 4*(k*workers+w))); v != uint32(w<<16|k) {
				t.Fatalf("worker %d store %d: read %#x", w, k, v)
			}
		}
	}
	if v, _ := m.Load(counter); v != workers*perWorker {
		t.Errorf("stray counter = %d, want %d", v, workers*perWorker)
	}
}

// TestAccessErrorStrings freezes the fault messages: equiv_test.go and the
// corpus compare them byte for byte across engines, and the server echoes
// them to tenants.
func TestAccessErrorStrings(t *testing.T) {
	m := NewMemory(1024)
	if _, err := m.Alloc(16); err != nil {
		t.Fatal(err)
	}
	const (
		unaligned = "mem: unaligned access at 0x6"
		beyond    = "mem: access at 0x400 beyond device memory (1024 bytes)"
		// Unaligned wins over beyond-device on one address.
		unalignedBeyond = "mem: unaligned access at 0x402"
	)
	one := make([]uint32, 1)
	inc := func(o uint32) uint32 { return o + 1 }
	for _, tc := range []struct {
		name string
		err  error
		want string
	}{
		{"Load unaligned", second(m.Load(6)), unaligned},
		{"Load beyond", second(m.Load(1024)), beyond},
		{"Load unaligned beyond", second(m.Load(1026)), unalignedBeyond},
		{"Store unaligned", m.Store(6, 1), unaligned},
		{"Store beyond", m.Store(1024, 1), beyond},
		{"Atomic unaligned", second(m.Atomic(6, inc)), unaligned},
		{"Atomic beyond", second(m.Atomic(1024, inc)), beyond},
		{"Gather beyond", m.Gather([]uint32{0, 1024, 6}, make([]uint32, 3)), beyond},
		{"Scatter unaligned", m.Scatter([]uint32{0, 6, 1024}, make([]uint32, 3)), unaligned},
		{"WriteWords unaligned", m.WriteWords(6, one), unaligned},
		{"WriteWords beyond", m.WriteWords(1024, one), beyond},
		{"WriteWords empty at end", m.WriteWords(1024, nil), beyond},
		{"WriteWords overrun", m.WriteWords(1016, make([]uint32, 3)), "mem: write of 3 words at 0x3f8 overruns device memory"},
		{"ReadWords unaligned", m.ReadWords(6, one), unaligned},
		{"ReadWords beyond", m.ReadWords(1024, one), beyond},
		{"ReadWords overrun", m.ReadWords(1016, make([]uint32, 3)), "mem: read of 3 words at 0x3f8 overruns device memory"},
		{"Alloc exhausted", second(m.Alloc(2048)), "mem: out of device memory (2048 bytes requested, 16 in use)"},
	} {
		if tc.err == nil || tc.err.Error() != tc.want {
			t.Errorf("%s: got %v, want %q", tc.name, tc.err, tc.want)
		}
	}
	if v, _ := m.Load(1016); v != 0 {
		t.Errorf("an overrunning write stored %d before failing", v)
	}
}

func second[T any](_ T, err error) error { return err }
