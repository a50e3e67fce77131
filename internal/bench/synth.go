package bench

import (
	"gpucmp/internal/arch"
	"gpucmp/internal/kir"
	"gpucmp/internal/sim"
)

// maxFlopsKernel builds the SHOC MaxFlops probe. On GT200 the paper
// measures peak with interleaved mul+mad chains (the dual-issue pipes must
// both be fed for R=3 in Eq. (3)); on everything else a pure mad chain
// reaches peak. rounds is the number of fully unrolled 16-operation
// groups.
func maxFlopsKernel(interleaved bool, rounds int) *kir.Kernel {
	b := kir.NewKernel("maxflops")
	out := b.GlobalBuffer("out", kir.F32)
	gid := b.Declare("gid", b.GlobalIDX())
	a := b.Declare("a", kir.Add(kir.CastTo(kir.F32, gid), kir.F(0.5)))
	c := b.Declare("c", kir.F(0.999))
	s := b.Declare("s", kir.F(1.000001))
	m := b.Declare("m", kir.F(1.5))
	b.ForUnroll("r", kir.U(0), kir.U(uint32(rounds)), kir.U(1), kir.UnrollFull, func(r kir.Expr) {
		for i := 0; i < 8; i++ {
			// mad: a = a*s + c
			b.Assign(a, kir.Add(kir.Mul(a, s), c))
			if interleaved {
				// independent mul chain co-issues on the GT200 SFU pipe
				b.Assign(m, kir.Mul(m, s))
			}
		}
	})
	if interleaved {
		b.Assign(a, kir.Add(a, m))
	}
	b.Store(out, gid, a)
	return b.MustBuild()
}

// RunMaxFlops measures achieved peak arithmetic throughput (Fig. 2),
// reported in GFlops/sec from the event-timer execution time.
func RunMaxFlops(d Driver, cfg Config) (*Result, error) {
	const metric = "GFlops/sec"
	interleaved := d.Arch().Microarch == arch.GT200
	rounds := 48
	threads := cfg.scale(32768)
	block := 256
	if threads < block {
		block = threads
	}
	threads -= threads % block // the kernel has no bounds guard: whole blocks only

	k := maxFlopsKernel(interleaved, rounds)
	mod, err := d.Build(k)
	if err != nil {
		return abort(d, "MaxFlops", metric, err), nil
	}
	out, err := allocZero(d, threads)
	if err != nil {
		return abort(d, "MaxFlops", metric, err), nil
	}
	d.ResetTimer()
	grid := sim.Dim3{X: (threads + block - 1) / block, Y: 1}
	if err := d.Launch(mod, "maxflops", grid, sim.Dim3{X: block, Y: 1}, B(out)); err != nil {
		return abort(d, "MaxFlops", metric, err), nil
	}
	// Flops: each mad is 2 flops; each interleaved mul adds 1.
	perThread := float64(rounds * 8 * 2)
	if interleaved {
		perThread += float64(rounds * 8)
	}
	flops := perThread * float64(threads)
	secs := ExecSeconds(d)
	res := result(d, "MaxFlops", metric, flops/secs/1e9, true)
	return res, nil
}

// deviceMemoryKernel builds the SHOC DeviceMemory coalesced-read probe:
// each work-item strides through global memory accumulating, so every warp
// access is perfectly coalesced and the kernel is bandwidth-bound.
func deviceMemoryKernel(iters int) *kir.Kernel {
	b := kir.NewKernel("readGlobalMemoryCoalesced")
	data := b.GlobalBuffer("data", kir.F32)
	out := b.GlobalBuffer("out", kir.F32)
	stride := b.ScalarParam("stride", kir.U32)
	gid := b.Declare("gid", b.GlobalIDX())
	s := b.Declare("s", kir.F(0))
	idx := b.Declare("idx", gid)
	b.ForUnroll("i", kir.U(0), kir.U(uint32(iters)), kir.U(1), kir.UnrollFull, func(i kir.Expr) {
		b.Assign(s, kir.Add(s, b.Load(data, idx)))
		b.Assign(idx, kir.Add(idx, stride))
	})
	b.Store(out, gid, s)
	return b.MustBuild()
}

// RunDeviceMemory measures achieved global-memory read bandwidth (Fig. 1)
// with work-group size 256, the configuration the paper fixes.
func RunDeviceMemory(d Driver, cfg Config) (*Result, error) {
	const metric = "GB/sec"
	const iters = 32
	threads := cfg.scale(256 * 1024)
	block := 256
	if threads < block {
		block = threads
	}
	threads -= threads % block // the kernel has no bounds guard: whole blocks only
	words := threads * iters

	k := deviceMemoryKernel(iters)
	mod, err := d.Build(k)
	if err != nil {
		return abort(d, "DeviceMemory", metric, err), nil
	}
	data, err := allocZero(d, words)
	if err != nil {
		return abort(d, "DeviceMemory", metric, err), nil
	}
	out, err := allocZero(d, threads)
	if err != nil {
		return abort(d, "DeviceMemory", metric, err), nil
	}
	d.ResetTimer()
	grid := sim.Dim3{X: (threads + block - 1) / block, Y: 1}
	if err := d.Launch(mod, "readGlobalMemoryCoalesced", grid, sim.Dim3{X: block, Y: 1},
		B(data), B(out), V(uint32(threads))); err != nil {
		return abort(d, "DeviceMemory", metric, err), nil
	}
	bytes := float64(words) * 4
	secs := ExecSeconds(d)
	return result(d, "DeviceMemory", metric, bytes/secs/1e9, true), nil
}
