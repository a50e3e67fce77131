package bench

import (
	"fmt"
	"slices"

	"gpucmp/internal/kir"
	"gpucmp/internal/sim"
	"gpucmp/internal/workload"
)

const (
	stnwTile    = 512 // elements sorted in shared memory per group
	stnwThreads = 256
)

// stnwLocalKernel sorts 512-element key/value tiles in shared memory with
// a full bitonic network; tiles alternate ascending/descending so the
// global merge stages can take over at k = 2*tile.
func stnwLocalKernel() *kir.Kernel {
	b := kir.NewKernel("bitonicSortShared")
	keys := b.GlobalBuffer("keys", kir.U32)
	vals := b.GlobalBuffer("vals", kir.U32)
	sk := b.SharedArray("sk", kir.U32, stnwTile)
	sv := b.SharedArray("sv", kir.U32, stnwTile)
	stage := b.LocalArray("stage", kir.U32, 4)

	tid := kir.Bi(kir.TidX)
	base := b.Declare("base", kir.Mul(kir.Bi(kir.CtaidX), kir.U(stnwTile)))
	// Load two pairs per thread through the local staging slots.
	b.Store(stage, kir.U(0), b.Load(keys, kir.Add(base, tid)))
	b.Store(stage, kir.U(1), b.Load(keys, kir.Add(base, kir.Add(tid, kir.U(stnwThreads)))))
	b.Store(stage, kir.U(2), b.Load(vals, kir.Add(base, tid)))
	b.Store(stage, kir.U(3), b.Load(vals, kir.Add(base, kir.Add(tid, kir.U(stnwThreads)))))
	b.Store(sk, tid, b.Load(stage, kir.U(0)))
	b.Store(sk, kir.Add(tid, kir.U(stnwThreads)), b.Load(stage, kir.U(1)))
	b.Store(sv, tid, b.Load(stage, kir.U(2)))
	b.Store(sv, kir.Add(tid, kir.U(stnwThreads)), b.Load(stage, kir.U(3)))
	b.Barrier()

	// tileDesc = ctaid & 1: odd tiles sort descending.
	tileDesc := b.Declare("tileDesc", kir.And(kir.Bi(kir.CtaidX), kir.U(1)))

	step := 0
	for k := uint32(2); k <= stnwTile; k <<= 1 {
		for j := k >> 1; j >= 1; j >>= 1 {
			n := func(base string) string { return fmt.Sprintf("%s%d", base, step) }
			kk, jj := k, j
			// A single-trip fully unrolled loop scopes each stage's
			// declarations so their registers are released between stages.
			b.ForUnroll(n("s"), kir.U(0), kir.U(1), kir.U(1), kir.UnrollFull, func(_ kir.Expr) {
				k, j := kk, jj
				// Comparator index: insert a zero bit at position log2(j).
				i := b.Declare(n("i"), kir.Or(
					kir.Shl(kir.And(tid, kir.U(^(j-1))), kir.U(1)),
					kir.And(tid, kir.U(j-1))))
				p := b.Declare(n("p"), kir.Or(i, kir.U(j)))
				// asc = ((i & k) == 0) XOR tileDesc
				ascBit := b.Declare(n("ascBit"),
					kir.Xor(kir.Select(kir.Eq(kir.And(i, kir.U(k)), kir.U(0)), kir.U(1), kir.U(0)), tileDesc))
				a := b.Declare(n("a"), b.Load(sk, i))
				c := b.Declare(n("c"), b.Load(sk, p))
				swap := kir.LOr(
					kir.LAnd(kir.Eq(ascBit, kir.U(1)), kir.Gt(a, c)),
					kir.LAnd(kir.Eq(ascBit, kir.U(0)), kir.Lt(a, c)))
				b.If(swap, func() {
					b.Store(sk, i, c)
					b.Store(sk, p, a)
					av := b.Declare(n("av"), b.Load(sv, i))
					b.Store(sv, i, b.Load(sv, p))
					b.Store(sv, p, av)
				})
			})
			b.Barrier()
			step++
		}
	}

	b.Store(keys, kir.Add(base, tid), b.Load(sk, tid))
	b.Store(keys, kir.Add(base, kir.Add(tid, kir.U(stnwThreads))), b.Load(sk, kir.Add(tid, kir.U(stnwThreads))))
	b.Store(vals, kir.Add(base, tid), b.Load(sv, tid))
	b.Store(vals, kir.Add(base, kir.Add(tid, kir.U(stnwThreads))), b.Load(sv, kir.Add(tid, kir.U(stnwThreads))))
	return b.MustBuild()
}

// stnwGlobalKernel is one global comparator stage (stride j, segment k).
func stnwGlobalKernel() *kir.Kernel {
	b := kir.NewKernel("bitonicMergeGlobal")
	keys := b.GlobalBuffer("keys", kir.U32)
	vals := b.GlobalBuffer("vals", kir.U32)
	jj := b.ScalarParam("j", kir.U32)
	kk := b.ScalarParam("k", kir.U32)

	gid := b.Declare("gid", b.GlobalIDX())
	jm1 := b.Declare("jm1", kir.Sub(jj, kir.U(1)))
	i := b.Declare("i", kir.Or(
		kir.Shl(kir.And(gid, kir.Not(jm1)), kir.U(1)),
		kir.And(gid, jm1)))
	p := b.Declare("p", kir.Or(i, jj))
	asc := kir.Eq(kir.And(i, kk), kir.U(0))
	a := b.Declare("a", b.Load(keys, i))
	c := b.Declare("c", b.Load(keys, p))
	swap := kir.LOr(kir.LAnd(asc, kir.Gt(a, c)), kir.LAnd(kir.Not(asc), kir.Lt(a, c)))
	b.If(swap, func() {
		b.Store(keys, i, c)
		b.Store(keys, p, a)
		av := b.Declare("av", b.Load(vals, i))
		b.Store(vals, i, b.Load(vals, p))
		b.Store(vals, p, av)
	})
	return b.MustBuild()
}

// stnwData is STNW's host side at one pair count.
type stnwData struct {
	keys, vals []uint32 // vals[i] = i, so a sorted value names its key
	want       []uint32 // keys sorted
}

// stnwHost builds the key-value pairs and the sorted keys.
func stnwHost(n int) *stnwData {
	h := &stnwData{keys: workload.NewRNG(61).Keys(n, 1<<30), vals: make([]uint32, n)}
	for i := range h.vals {
		h.vals[i] = uint32(i)
	}
	h.want = slices.Clone(h.keys)
	slices.Sort(h.want)
	return h
}

// runSTNW measures sorting-network throughput in MElements/sec (Table II):
// key-value pairs sorted by a hybrid shared/global bitonic network.
func runSTNW(d Driver, cfg Config) *Result {
	n := cfg.scale(64 * 1024)
	// n must be a power of two and at least one tile.
	pow := 1
	for pow*2 <= n {
		pow *= 2
	}
	n = pow
	if n < stnwTile {
		n = stnwTile
	}
	h := hostData("STNW", n, stnwHost)

	mod, err := d.Build(stnwLocalKernel(), stnwGlobalKernel())
	if err != nil {
		return abort(d, err)
	}
	kb, err := allocWrite(d, h.keys)
	if err != nil {
		return abort(d, err)
	}
	vb, err := allocWrite(d, h.vals)
	if err != nil {
		return abort(d, err)
	}

	d.ResetTimer()
	tiles := n / stnwTile
	if err := d.Launch(mod, "bitonicSortShared", sim.Dim3{X: tiles, Y: 1}, sim.Dim3{X: stnwThreads, Y: 1},
		B(kb), B(vb)); err != nil {
		return abort(d, err)
	}
	for k := uint32(2 * stnwTile); k <= uint32(n); k <<= 1 {
		for j := k >> 1; j >= 1; j >>= 1 {
			grid := sim.Dim3{X: (n / 2) / stnwThreads, Y: 1}
			if grid.X < 1 {
				grid.X = 1
			}
			if err := d.Launch(mod, "bitonicMergeGlobal", grid, sim.Dim3{X: stnwThreads, Y: 1},
				B(kb), B(vb), V(j), V(k)); err != nil {
				return abort(d, err)
			}
		}
	}

	gotK, err := readWords(d, kb, n)
	if err != nil {
		return abort(d, err)
	}
	gotV, err := readWords(d, vb, n)
	if err != nil {
		return abort(d, err)
	}
	correct := true
	for i, w := range h.want {
		if gotK[i] != w || h.keys[gotV[i]] != gotK[i] {
			correct = false
			break
		}
	}

	return result(d, float64(n), correct)
}
