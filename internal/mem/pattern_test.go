package mem

import (
	"math/rand"
	"testing"
)

// randCase builds one random warp access: addresses, an active mask, and a
// segment size, drawn to cover broadcasts, strides, duplicates, descending
// runs and fully scattered patterns.
func randCase(r *rand.Rand) (addrs []uint32, mask uint64, seg uint32) {
	w := []int{1, 4, 16, 32, 64}[r.Intn(5)]
	addrs = make([]uint32, w)
	seg = []uint32{0, 4, 32, 64, 128}[r.Intn(5)]
	base := uint32(r.Intn(1<<16) * 4)
	switch r.Intn(8) {
	case 6: // periodic row repeats (a 2-D block's row-local index)
		pl := r.Intn(w) + 1
		run := make([]uint32, pl)
		a := base
		for i := range run {
			a += uint32(r.Intn(3)) * 4
			run[i] = a
		}
		for i := range addrs {
			addrs[i] = run[i%pl]
		}
	case 7: // near-periodic with one corrupted element
		pl := r.Intn(w)/2 + 1
		for i := range addrs {
			addrs[i] = base + uint32(i%pl)*4
		}
		addrs[r.Intn(w)] = base + uint32(r.Intn(4*w))*4
	case 0: // broadcast
		for i := range addrs {
			addrs[i] = base
		}
	case 1: // stride-1 words
		for i := range addrs {
			addrs[i] = base + uint32(i)*4
		}
	case 2: // stride-k
		k := uint32(r.Intn(8)+1) * 4
		for i := range addrs {
			addrs[i] = base + uint32(i)*k
		}
	case 3: // descending
		for i := range addrs {
			addrs[i] = base + uint32(w-i)*4
		}
	case 4: // scattered
		for i := range addrs {
			addrs[i] = uint32(r.Intn(1<<18)) * 4
		}
	default: // runs with duplicates
		a := base
		for i := range addrs {
			if r.Intn(3) == 0 {
				a += uint32(r.Intn(3)) * 4
			}
			addrs[i] = a
		}
	}
	switch r.Intn(3) {
	case 0:
		mask = ^uint64(0) >> uint(64-w)
	case 1:
		mask = r.Uint64() & (^uint64(0) >> uint(64-w))
	default:
		mask = 0
	}
	return addrs, mask, seg
}

// TestFastVariantsMatchReference pins the *Fast classification routines to
// the exact reference behaviour over a large random sample: same counts,
// and for the segment list the same contents in the same order (the cache
// models replay that list, so order is observable).
func TestFastVariantsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		addrs, mask, seg := randCase(r)

		var refList, fastList [64]uint32
		nr := CoalesceList(addrs, mask, seg, refList[:])
		nf := CoalesceListFast(addrs, mask, seg, fastList[:])
		if nr != nf {
			t.Fatalf("case %d: CoalesceListFast count %d, reference %d (addrs=%v mask=%#x seg=%d)",
				i, nf, nr, addrs, mask, seg)
		}
		for j := 0; j < nr; j++ {
			if refList[j] != fastList[j] {
				t.Fatalf("case %d: segment %d: fast %#x, reference %#x (addrs=%v mask=%#x seg=%d)",
					i, j, fastList[j], refList[j], addrs, mask, seg)
			}
		}

		if got, want := CoalesceSegmentsFast(addrs, mask, seg), CoalesceSegments(addrs, mask, seg); got != want {
			t.Fatalf("case %d: CoalesceSegmentsFast %d, reference %d", i, got, want)
		}
		if got, want := DistinctAddrsFast(addrs, mask), DistinctAddrs(addrs, mask); got != want {
			t.Fatalf("case %d: DistinctAddrsFast %d, reference %d (addrs=%v mask=%#x)", i, got, want, addrs, mask)
		}
		for _, banks := range []int{1, 16, 32} {
			if got, want := BankConflictFactorFast(addrs, mask, banks), BankConflictFactor(addrs, mask, banks); got != want {
				t.Fatalf("case %d: BankConflictFactorFast(banks=%d) %d, reference %d (addrs=%v mask=%#x)",
					i, banks, got, want, addrs, mask)
			}
		}
	}
}

// TestFullVariantsMatchReference pins the mask-free *Full specialisations
// (used by the threaded engine's block-compiled memory arms, which only
// execute fully-active full-width warps) to the masked reference routines
// called with an all-lanes mask, over the same random pattern mix.
func TestFullVariantsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		addrs, _, seg := randCase(r)
		full := ^uint64(0) >> uint(64-len(addrs))

		var refList, fullList [64]uint32
		nr := CoalesceList(addrs, full, seg, refList[:])
		nf := CoalesceListFull(addrs, seg, fullList[:])
		if nr != nf {
			t.Fatalf("case %d: CoalesceListFull count %d, reference %d (addrs=%v seg=%d)",
				i, nf, nr, addrs, seg)
		}
		for j := 0; j < nr; j++ {
			if refList[j] != fullList[j] {
				t.Fatalf("case %d: segment %d: full %#x, reference %#x (addrs=%v seg=%d)",
					i, j, fullList[j], refList[j], addrs, seg)
			}
		}

		if got, want := DistinctAddrsFull(addrs), DistinctAddrs(addrs, full); got != want {
			t.Fatalf("case %d: DistinctAddrsFull %d, reference %d (addrs=%v)", i, got, want, addrs)
		}
		for _, banks := range []int{1, 16, 32} {
			if got, want := BankConflictFactorFull(addrs, banks), BankConflictFactor(addrs, full, banks); got != want {
				t.Fatalf("case %d: BankConflictFactorFull(banks=%d) %d, reference %d (addrs=%v)",
					i, banks, got, want, addrs)
			}
		}
	}
}

func benchAddrs(pattern string) ([]uint32, uint64) {
	var a [32]uint32
	switch pattern {
	case "broadcast":
		for i := range a {
			a[i] = 4096
		}
	case "stride1":
		for i := range a {
			a[i] = uint32(i) * 4
		}
	default: // scattered
		r := rand.New(rand.NewSource(7))
		for i := range a {
			a[i] = uint32(r.Intn(1<<18)) * 4
		}
	}
	return a[:], (1 << 32) - 1
}

func BenchmarkCoalesceListReference(b *testing.B) {
	for _, p := range []string{"broadcast", "stride1", "scattered"} {
		addrs, mask := benchAddrs(p)
		b.Run(p, func(b *testing.B) {
			var out [64]uint32
			for i := 0; i < b.N; i++ {
				CoalesceList(addrs, mask, 128, out[:])
			}
		})
	}
}

func BenchmarkCoalesceListFast(b *testing.B) {
	for _, p := range []string{"broadcast", "stride1", "scattered"} {
		addrs, mask := benchAddrs(p)
		b.Run(p, func(b *testing.B) {
			var out [64]uint32
			for i := 0; i < b.N; i++ {
				CoalesceListFast(addrs, mask, 128, out[:])
			}
		})
	}
}

func BenchmarkBankConflictFactorFast(b *testing.B) {
	for _, p := range []string{"broadcast", "stride1", "scattered"} {
		addrs, mask := benchAddrs(p)
		b.Run(p, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BankConflictFactorFast(addrs, mask, 16)
			}
		})
	}
}
