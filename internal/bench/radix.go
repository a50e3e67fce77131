package bench

import (
	"sort"

	"gpucmp/internal/kir"
	"gpucmp/internal/sim"
	"gpucmp/internal/workload"
)

const (
	rdxBlock     = 256 // work-items per group
	rdxElemsPerT = 4   // keys per work-item
	rdxTile      = rdxBlock * rdxElemsPerT
	rdxDigits    = 16 // 4-bit digits
	rdxPasses    = 4  // 16-bit keys
	rdxHostWarp  = 32 // the warp width BAKED INTO the implementation
)

// radixCountKernel counts digit occurrences per block. Rank bookkeeping is
// warp-synchronous: a serialisation loop over the 32 lanes of a warp — but
// the warp row is derived from the DEVICE's warpSize builtin while the lane
// is masked with the constant 31. On 32-wide hardware each (row, lane)
// slot is unique; on a 64-wide wavefront two active lanes share a row and
// their shared-memory increments collide. That is the paper's Table VI
// "FL" mechanism for RdxS ("the implementation depends on warp-size in
// CUDA, i.e. wavefront-size in APP").
func radixCountKernel() *kir.Kernel {
	b := kir.NewKernel("radixCount")
	keys := b.GlobalBuffer("keys", kir.U32)
	blockCount := b.GlobalBuffer("blockCount", kir.U32)
	shift := b.ScalarParam("shift", kir.U32)
	nblocks := b.ScalarParam("nblocks", kir.U32)
	hist := b.SharedArray("hist", kir.U32, (rdxBlock/rdxHostWarp)*rdxDigits)
	lkey := b.LocalArray("lkey", kir.U32, rdxElemsPerT)
	ldig := b.LocalArray("ldig", kir.U32, rdxElemsPerT)
	b.AssumeWarpWidth(rdxHostWarp)

	tid := kir.Bi(kir.TidX)
	b.If(kir.Lt(tid, kir.U((rdxBlock/rdxHostWarp)*rdxDigits)), func() {
		b.Store(hist, tid, kir.U(0))
	})
	b.Barrier()

	base := b.Declare("base", kir.Add(kir.Mul(kir.Bi(kir.CtaidX), kir.U(rdxTile)), kir.Mul(tid, kir.U(rdxElemsPerT))))
	b.For("e", kir.U(0), kir.U(rdxElemsPerT), kir.U(1), func(e kir.Expr) {
		kv := b.Declare("kv", b.Load(keys, kir.Add(base, e)))
		b.Store(lkey, e, kv)
		b.Store(ldig, e, kir.And(kir.Shr(kv, shift), kir.U(rdxDigits-1)))
	})

	// warp row from the DEVICE width, lane from the assumed width of 32.
	row := b.Declare("row", kir.Div(tid, kir.Bi(kir.WarpSize)))
	lane := b.Declare("lane", kir.And(tid, kir.U(rdxHostWarp-1)))
	b.For("l", kir.U(0), kir.U(rdxHostWarp), kir.U(1), func(l kir.Expr) {
		b.If(kir.Eq(lane, l), func() {
			b.For("e", kir.U(0), kir.U(rdxElemsPerT), kir.U(1), func(e kir.Expr) {
				slot := kir.Add(kir.Mul(row, kir.U(rdxDigits)), b.Load(ldig, e))
				b.Store(hist, slot, kir.Add(b.Load(hist, slot), kir.U(1)))
			})
		})
	})
	b.Barrier()

	b.If(kir.Lt(tid, kir.U(rdxDigits)), func() {
		total := b.Declare("total", kir.U(0))
		b.For("r", kir.U(0), kir.U(rdxBlock/rdxHostWarp), kir.U(1), func(r kir.Expr) {
			b.Assign(total, kir.Add(total, b.Load(hist, kir.Add(kir.Mul(r, kir.U(rdxDigits)), tid))))
		})
		b.Store(blockCount, kir.Add(kir.Mul(tid, nblocks), kir.Bi(kir.CtaidX)), total)
	})
	return b.MustBuild()
}

// radixScatterKernel recomputes ranks with the same warp-synchronous
// scheme and scatters keys to their scanned global positions.
func radixScatterKernel() *kir.Kernel {
	b := kir.NewKernel("radixScatter")
	keys := b.GlobalBuffer("keys", kir.U32)
	outKeys := b.GlobalBuffer("outKeys", kir.U32)
	scanned := b.GlobalBuffer("scanned", kir.U32)
	shift := b.ScalarParam("shift", kir.U32)
	nblocks := b.ScalarParam("nblocks", kir.U32)
	hist := b.SharedArray("hist", kir.U32, (rdxBlock/rdxHostWarp)*rdxDigits)
	rowBase := b.SharedArray("rowBase", kir.U32, (rdxBlock/rdxHostWarp)*rdxDigits)
	lkey := b.LocalArray("lkey", kir.U32, rdxElemsPerT)
	ldig := b.LocalArray("ldig", kir.U32, rdxElemsPerT)
	lrank := b.LocalArray("lrank", kir.U32, rdxElemsPerT)
	b.AssumeWarpWidth(rdxHostWarp)

	tid := kir.Bi(kir.TidX)
	b.If(kir.Lt(tid, kir.U((rdxBlock/rdxHostWarp)*rdxDigits)), func() {
		b.Store(hist, tid, kir.U(0))
	})
	b.Barrier()

	base := b.Declare("base", kir.Add(kir.Mul(kir.Bi(kir.CtaidX), kir.U(rdxTile)), kir.Mul(tid, kir.U(rdxElemsPerT))))
	b.For("e", kir.U(0), kir.U(rdxElemsPerT), kir.U(1), func(e kir.Expr) {
		kv := b.Declare("kv", b.Load(keys, kir.Add(base, e)))
		b.Store(lkey, e, kv)
		b.Store(ldig, e, kir.And(kir.Shr(kv, shift), kir.U(rdxDigits-1)))
	})

	row := b.Declare("row", kir.Div(tid, kir.Bi(kir.WarpSize)))
	lane := b.Declare("lane", kir.And(tid, kir.U(rdxHostWarp-1)))
	b.For("l", kir.U(0), kir.U(rdxHostWarp), kir.U(1), func(l kir.Expr) {
		b.If(kir.Eq(lane, l), func() {
			b.For("e", kir.U(0), kir.U(rdxElemsPerT), kir.U(1), func(e kir.Expr) {
				slot := kir.Add(kir.Mul(row, kir.U(rdxDigits)), b.Load(ldig, e))
				b.Store(lrank, e, b.Load(hist, slot))
				b.Store(hist, slot, kir.Add(b.Load(hist, slot), kir.U(1)))
			})
		})
	})
	b.Barrier()

	// Prefix the per-row histograms so each row knows its in-block base.
	b.If(kir.Lt(tid, kir.U(rdxDigits)), func() {
		acc := b.Declare("acc", kir.U(0))
		b.For("r", kir.U(0), kir.U(rdxBlock/rdxHostWarp), kir.U(1), func(r kir.Expr) {
			slot := kir.Add(kir.Mul(r, kir.U(rdxDigits)), tid)
			b.Store(rowBase, slot, acc)
			b.Assign(acc, kir.Add(acc, b.Load(hist, slot)))
		})
	})
	b.Barrier()

	b.For("e", kir.U(0), kir.U(rdxElemsPerT), kir.U(1), func(e kir.Expr) {
		dg := b.Declare("dg", b.Load(ldig, e))
		slot := kir.Add(kir.Mul(row, kir.U(rdxDigits)), dg)
		pos := b.Declare("pos", kir.Add(
			kir.Add(b.Load(scanned, kir.Add(kir.Mul(dg, nblocks), kir.Bi(kir.CtaidX))), b.Load(rowBase, slot)),
			b.Load(lrank, e)))
		b.Store(outKeys, pos, b.Load(lkey, e))
	})
	return b.MustBuild()
}

// scanSumsKernel exclusive-scans the digit-major per-block counts in place
// with one thread (the array is tiny: 16 digits x nblocks).
func scanSumsKernel() *kir.Kernel {
	b := kir.NewKernel("scanSums")
	sums := b.GlobalBuffer("sums", kir.U32)
	n := b.ScalarParam("n", kir.U32)
	gid := b.Declare("gid", b.GlobalIDX())
	b.If(kir.Eq(gid, kir.U(0)), func() {
		acc := b.Declare("acc", kir.U(0))
		b.For("i", kir.U(0), n, kir.U(1), func(i kir.Expr) {
			v := b.Declare("v", b.Load(sums, i))
			b.Store(sums, i, acc)
			b.Assign(acc, kir.Add(acc, v))
		})
	})
	return b.MustBuild()
}

// runRdxS measures radix-sort throughput in MElements/sec (Table II). On
// devices whose wavefront differs from the baked-in warp width of 32 the
// sort completes but produces a wrongly ordered result ("FL").
func runRdxS(d Driver, cfg Config) *Result {
	nblocks := cfg.scale(16)
	if nblocks < 1 {
		nblocks = 1
	}
	n := nblocks * rdxTile
	keys := workload.NewRNG(59).Keys(n, 1<<16)

	mod, err := d.Build(radixCountKernel(), scanSumsKernel(), radixScatterKernel())
	if err != nil {
		return abort(d, err)
	}
	bufA, err := allocWrite(d, keys)
	if err != nil {
		return abort(d, err)
	}
	bufB, err := allocZero(d, n)
	if err != nil {
		return abort(d, err)
	}
	countBuf, err := allocZero(d, rdxDigits*nblocks)
	if err != nil {
		return abort(d, err)
	}

	d.ResetTimer()
	src, dst := bufA, bufB
	for pass := 0; pass < rdxPasses; pass++ {
		shift := uint32(4 * pass)
		grid := sim.Dim3{X: nblocks, Y: 1}
		block := sim.Dim3{X: rdxBlock, Y: 1}
		if err := d.Launch(mod, "radixCount", grid, block,
			B(src), B(countBuf), V(shift), V(uint32(nblocks))); err != nil {
			return abort(d, err)
		}
		if err := d.Launch(mod, "scanSums", sim.Dim3{X: 1, Y: 1}, sim.Dim3{X: 1, Y: 1},
			B(countBuf), V(uint32(rdxDigits*nblocks))); err != nil {
			return abort(d, err)
		}
		if err := d.Launch(mod, "radixScatter", grid, block,
			B(src), B(dst), B(countBuf), V(shift), V(uint32(nblocks))); err != nil {
			return abort(d, err)
		}
		src, dst = dst, src
	}

	got, err := readWords(d, src, n)
	if err != nil {
		return abort(d, err)
	}
	want := append([]uint32(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	correct := true
	for i := range want {
		if got[i] != want[i] {
			correct = false
			break
		}
	}

	return result(d, float64(n), correct)
}
