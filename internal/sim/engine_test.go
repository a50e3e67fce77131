package sim

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/compiler"
	"gpucmp/internal/kir"
	"gpucmp/internal/ptx"
)

// TestAggregateNanos is the regression test for the ExecNanos aggregation
// bug under Parallel=true: per-unit busy times used to be summed even when
// the units ran concurrently, overstating the engine's cost by up to the
// compute-unit count. Concurrent units overlap, so the launch contributes
// the critical path (max), not the sum.
func TestAggregateNanos(t *testing.T) {
	per := []int64{5, 3, 9, 1}
	if got := aggregateNanos(per, false); got != 18 {
		t.Errorf("sequential: got %d, want the sum 18", got)
	}
	if got := aggregateNanos(per, true); got != 9 {
		t.Errorf("parallel: got %d, want the critical path 9", got)
	}
	if got := aggregateNanos(nil, true); got != 0 {
		t.Errorf("empty: got %d, want 0", got)
	}
}

// TestExecNanosAccumulates pins the wiring: every launch, on every engine
// and under either parallelism setting, adds a positive contribution to
// the device's cumulative ExecNanos. (The max-vs-sum split itself is
// covered by TestAggregateNanos — under GOMAXPROCS=1 Launch downgrades
// Parallel, so the parallel aggregation cannot be timed end to end here.)
func TestExecNanosAccumulates(t *testing.T) {
	b := kir.NewKernel("nanos_probe")
	out := b.GlobalBuffer("out", kir.U32)
	b.For("i", kir.U(0), kir.U(64), kir.U(1), func(i kir.Expr) {
		b.Store(out, b.GlobalIDX(), kir.Add(i, b.GlobalIDX()))
	})
	pk := compile(t, b.MustBuild(), compiler.CUDA())

	for _, eng := range []Engine{EngineThreaded, EngineReference} {
		for _, parallel := range []bool{false, true} {
			d := newDev(t, arch.GTX480())
			d.Engine = eng
			d.Parallel = parallel
			addr := uploadU32(t, d, make([]uint32, 1024))
			last := d.ExecNanos()
			if last != 0 {
				t.Fatalf("%s: fresh device has ExecNanos %d", eng, last)
			}
			for i := 0; i < 2; i++ {
				if _, err := d.Launch(pk, Dim3{X: 16, Y: 1}, Dim3{X: 64, Y: 1}, []uint32{addr}); err != nil {
					t.Fatal(err)
				}
				now := d.ExecNanos()
				if now <= last {
					t.Fatalf("%s parallel=%v: ExecNanos did not grow after launch %d: %d -> %d",
						eng, parallel, i, last, now)
				}
				last = now
			}
		}
	}
}

// TestNewDeviceCost pins that constructing a device commits almost nothing:
// global memory is an addressable window, not a host allocation (the
// constant segment's share is TestNewDeviceCommitsNoConstants). fuzz.Check
// builds ten devices per program, so an eager backing store is what its
// throughput measures.
func TestNewDeviceCost(t *testing.T) {
	for _, a := range arch.All() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := newDev(t, a)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: NewDevice allocated %d bytes, want < 1 MiB", a.Name, got)
		}
		if d.Global.Size() == 0 || d.Global.InUse() != 0 {
			t.Errorf("%s: fresh global memory: size %d, in use %d", a.Name, d.Global.Size(), d.Global.InUse())
		}
	}
}

// strayKIR reads and writes 4 MiB past its only buffer: a kernel bug the
// flat memory model tolerates (reads see zeros, writes stick), so every
// engine must tolerate it identically.
func strayKIR() *kir.Kernel {
	b := kir.NewKernel("stray")
	out := b.GlobalBuffer("out", kir.U32)
	gid := b.Declare("gid", b.GlobalIDX())
	far := b.Declare("far", kir.Add(gid, kir.U(1<<20)))
	b.Store(out, gid, kir.Add(b.Load(out, far), gid))
	b.Store(out, far, kir.Add(gid, kir.U(1)))
	b.Atomic(out, kir.U(2<<20), kir.AtomicAdd, kir.U(1))
	return b.MustBuild()
}

// TestLaunchSetUpSizedToGrid: a grid smaller than the device builds
// compute-unit state only for the units that receive a block, and nothing
// observable changes — trace and memory equal the reference engine's on
// every engine, sequential and parallel, including for accesses past the
// committed memory.
func TestLaunchSetUpSizedToGrid(t *testing.T) {
	a := arch.GTX280()
	const blocks, blockSize, n = 3, 64, 3 * 64
	if blocks >= a.ComputeUnits {
		t.Fatalf("test needs a grid below the %d compute units", a.ComputeUnits)
	}
	type result struct {
		tr    *Trace
		image []uint32
		far   []uint32
	}
	for _, kc := range []struct {
		kernel *kir.Kernel
		bufs   []int // words per buffer argument
	}{
		{stressKIR(), []int{n, n, 1}},
		{strayKIR(), []int{n}},
	} {
		pk := compile(t, kc.kernel, compiler.OpenCL())
		run := func(eng Engine, parallel bool) result {
			d := newDev(t, a)
			d.Engine, d.Parallel = eng, parallel
			var args []uint32
			for _, words := range kc.bufs {
				buf := make([]uint32, words)
				for i := range buf {
					buf[i] = uint32(i*2654435761) % 251
				}
				args = append(args, uploadU32(t, d, buf))
			}
			tr, err := d.Launch(pk, Dim3{X: blocks, Y: 1}, Dim3{X: blockSize, Y: 1}, args)
			if err != nil {
				t.Fatalf("%s on %s: %v", pk.Name, eng, err)
			}
			if eng != EngineReference && (len(d.arenas) != blocks || len(d.cus) != blocks) {
				t.Errorf("%s on %s: %d arenas and %d unit states for a %d-block grid",
					pk.Name, eng, len(d.arenas), len(d.cus), blocks)
			}
			r := result{tr: tr, image: make([]uint32, d.Global.InUse()/4), far: make([]uint32, n+1)}
			if err := d.Global.ReadWords(0, r.image); err != nil {
				t.Fatal(err)
			}
			// The words strayKIR touches past its buffer (zeros for stress).
			if err := d.Global.ReadWords(args[0]+(4<<20), r.far[:n]); err != nil {
				t.Fatal(err)
			}
			if err := d.Global.ReadWords(args[0]+(8<<20), r.far[n:]); err != nil {
				t.Fatal(err)
			}
			return r
		}
		ref := run(EngineReference, false)
		if pk.Name == "stray" && (ref.far[0] != 1 || ref.far[n] != n) {
			t.Fatalf("stray kernel did not land past its buffer: far[0]=%d counter=%d", ref.far[0], ref.far[n])
		}
		for _, eng := range []Engine{EngineReference, EngineThreaded} {
			for _, parallel := range []bool{false, true} {
				got := run(eng, parallel)
				if !reflect.DeepEqual(got.tr, ref.tr) {
					t.Errorf("%s on %s parallel=%v: trace differs:\nref: %s\ngot: %s",
						pk.Name, eng, parallel, ref.tr.Summary(), got.tr.Summary())
				}
				if !reflect.DeepEqual(got.image, ref.image) || !reflect.DeepEqual(got.far, ref.far) {
					t.Errorf("%s on %s parallel=%v: memory differs from the reference engine", pk.Name, eng, parallel)
				}
			}
		}
	}
}

// TestLaunchSetUpGrowsToDevice: set-up follows the largest grid seen and
// stops at the device's compute-unit count.
func TestLaunchSetUpGrowsToDevice(t *testing.T) {
	a := arch.GTX280()
	d := newDev(t, a)
	pk := compile(t, stressKIR(), compiler.CUDA())
	const blockSize = 64
	n := (a.ComputeUnits + 7) * blockSize
	args := []uint32{uploadU32(t, d, make([]uint32, n)), uploadU32(t, d, make([]uint32, n)), uploadU32(t, d, []uint32{0})}
	for _, step := range []struct{ grid, want int }{
		{2, 2}, {a.ComputeUnits + 7, a.ComputeUnits}, {1, a.ComputeUnits},
	} {
		if _, err := d.Launch(pk, Dim3{X: step.grid, Y: 1}, Dim3{X: blockSize, Y: 1}, args); err != nil {
			t.Fatal(err)
		}
		if len(d.arenas) != step.want || len(d.cus) != step.want {
			t.Errorf("after a %d-block grid: %d arenas, %d unit states, want %d",
				step.grid, len(d.arenas), len(d.cus), step.want)
		}
	}
}

// stressRun is one launch of stressKIR on a fresh device: the trace and the
// whole committed global memory.
type stressRun struct {
	dev   *Device
	tr    *Trace
	image []uint32
}

func runStress(t *testing.T, a *arch.Device, pk *ptx.Kernel, parallel bool) stressRun {
	const blocks, blockSize = 33, 64
	d, err := NewDevice(a)
	if err != nil {
		t.Error(err) // not Fatal: callers run on other goroutines too
		return stressRun{}
	}
	d.Parallel = parallel
	var args []uint32
	for _, words := range []int{blocks * blockSize, blocks * blockSize, 1} {
		buf := make([]uint32, words)
		for i := range buf {
			buf[i] = uint32(i*2654435761) % 251
		}
		addr, err := d.Global.Alloc(uint32(4 * words))
		if err == nil {
			err = d.Global.WriteWords(addr, buf)
		}
		if err != nil {
			t.Error(err)
			return stressRun{}
		}
		args = append(args, addr)
	}
	tr, err := d.Launch(pk, Dim3{X: blocks, Y: 1}, Dim3{X: blockSize, Y: 1}, args)
	if err != nil {
		t.Errorf("%s: %v", a.Name, err)
		return stressRun{}
	}
	r := stressRun{dev: d, tr: tr, image: make([]uint32, d.Global.InUse()/4)}
	if err := d.Global.ReadWords(0, r.image); err != nil {
		t.Error(err)
	}
	return r
}

// compiledSegs counts the segments of p a launch has block-compiled.
func compiledSegs(p *tProgram) int64 {
	var n int64
	for i := range p.segs {
		if p.segs[i].compiled.Load() != nil {
			n++
		}
	}
	return n
}

// TestProgramSharing pins where a program lives: with the kernel, once per
// SIMD width. Devices of one width run one program and compile each of its
// segments once between them; another width gets its own; a kernel copied
// by value and edited never runs its original's program.
func TestProgramSharing(t *testing.T) {
	pk := compile(t, stressKIR(), compiler.CUDA())
	gt280 := runStress(t, arch.GTX280(), pk, false)
	gt480 := runStress(t, arch.GTX480(), pk, false)
	if t.Failed() {
		t.FailNow()
	}
	p32 := programFor(pk, 32)
	for _, r := range []stressRun{gt280, gt480} {
		if r.dev.arenas[0].blk.prog != p32 {
			t.Errorf("%s did not run the kernel's width-32 program", r.dev.Arch.Name)
		}
	}
	c280 := gt280.dev.DeviceEngineStats().BlockCompiles
	c480 := gt480.dev.DeviceEngineStats().BlockCompiles
	if n := compiledSegs(p32); n == 0 || c280+c480 != n {
		t.Errorf("block compiles %d on GTX280 + %d on GTX480, want the %d compiled segments once", c280, c480, n)
	}

	hd := runStress(t, arch.HD5870(), pk, false)
	if t.Failed() {
		t.FailNow()
	}
	p64 := programFor(pk, 64)
	if p64 == p32 || hd.dev.arenas[0].blk.prog != p64 {
		t.Error("HD5870 (width 64) did not get a program of its own")
	}
	if c := hd.dev.DeviceEngineStats().BlockCompiles; c == 0 || c != compiledSegs(p64) {
		t.Errorf("HD5870 compiled %d segments, its program holds %d", c, compiledSegs(p64))
	}

	// A copy made after the original ran, with one immediate edited: it must
	// decode its own instructions, not reuse the original's program.
	edited := *pk
	edited.Instrs = append([]ptx.Instruction(nil), pk.Instrs...)
	found := false
	for i := range edited.Instrs {
		in := &edited.Instrs[i]
		if in.Op == ptx.OpAdd && in.Src[1].IsImm && in.Src[1].Imm == 7 { // (tid + 7) % 64
			in.Src[1].Imm = 9
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no add of immediate 7 in:\n%s", pk.Disassemble())
	}
	copied := runStress(t, arch.GTX480(), &edited, false)
	again := runStress(t, arch.GTX480(), pk, false)
	if t.Failed() {
		t.FailNow()
	}
	if programFor(&edited, 32) == p32 || copied.dev.arenas[0].blk.prog == p32 {
		t.Error("the edited copy ran its original's program")
	}
	if reflect.DeepEqual(copied.image, gt480.image) {
		t.Error("editing the copy's immediate changed nothing it computed")
	}
	if !reflect.DeepEqual(again.image, gt480.image) || !reflect.DeepEqual(again.tr, gt480.tr) {
		t.Error("the original computes something else after its copy ran")
	}
}

// TestProgramSharedAcrossDevicesConcurrently: one kernel launched at once
// on every modelled device, each launch parallel across its units, equals
// sequential launches of a separately compiled twin on fresh devices, in
// trace and in the whole of global memory. Run it under -race.
func TestProgramSharedAcrossDevicesConcurrently(t *testing.T) {
	twin := compile(t, stressKIR(), compiler.OpenCL())
	want := map[string]stressRun{}
	for _, a := range arch.All() {
		want[a.Name] = runStress(t, a, twin, false)
	}
	pk := compile(t, stressKIR(), compiler.OpenCL())
	got := make([]stressRun, len(arch.All()))
	var wg sync.WaitGroup
	for i, a := range arch.All() {
		wg.Add(1)
		go func(i int, a *arch.Device) {
			defer wg.Done()
			got[i] = runStress(t, a, pk, true)
		}(i, a)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, a := range arch.All() {
		w := want[a.Name]
		if !reflect.DeepEqual(got[i].tr, w.tr) {
			t.Errorf("%s: trace differs:\n got %s\nwant %s", a.Name, got[i].tr.Summary(), w.tr.Summary())
		}
		if !reflect.DeepEqual(got[i].image, w.image) {
			t.Errorf("%s: global memory differs", a.Name)
		}
	}
}
