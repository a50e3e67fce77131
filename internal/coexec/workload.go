// Package coexec splits one benchmark launch across several modelled
// devices in the same process — the CUDA+OpenCL co-execution pattern of
// SNIPPETS.md §3 — with transfer-inclusive accounting and fault-tolerant
// shard scheduling. A workload is a pattern program partitioned into
// contiguous shards of independent units; a shard is the program lowered
// at the shard's shape, its buffers bound to the shard's slice of the
// device buffers, so every device runs the one kernel source. The merged
// output is bit-identical to a single-device run, and to pattern.Eval on
// the host, because the simulator is bit-exact and every unit's output
// depends only on the inputs and a fixed per-unit operation order, never
// on how the units were grouped into shards or which device ran them.
package coexec

import (
	"fmt"
	"strings"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/kir"
	"gpucmp/internal/pattern"
	"gpucmp/internal/sim"
	"gpucmp/internal/workload"
)

// Times is the simulated cost of one shard execution, split by engine so
// the copy/compute overlap timeline can be assembled (see timeline.go).
type Times struct {
	H2D    float64 // host->device input copy seconds
	Kernel float64 // compute seconds
	D2H    float64 // device->host output copy seconds
}

// Total returns the no-overlap (serialised) cost.
func (t Times) Total() float64 { return t.H2D + t.Kernel + t.D2H }

// Workload is a partitionable benchmark: Units independent work units,
// each producing WordsPerUnit output words. Kernels must avoid shared
// memory and per-partition accumulation orders so that every modelled
// device (including the Cell/BE with its tiny local store) produces the
// same bits for the same unit.
type Workload interface {
	Name() string
	Units() int
	WordsPerUnit() int
	// NewInstance opens per-device state: a driver on the device, device
	// buffers, the compiled kernel, and any broadcast inputs (charged to
	// the instance's setup time, not to a shard).
	NewInstance(toolchain string, a *arch.Device) (Instance, error)
}

// Instance is one device's view of a workload. It is not safe for
// concurrent use; Run drives every instance from its own goroutine.
type Instance interface {
	// RunUnits executes units [lo,hi) and returns their output words
	// (len = (hi-lo)*WordsPerUnit) plus the simulated cost split.
	RunUnits(lo, hi int) ([]uint32, Times, error)
	// SimDevice exposes the simulated device for cancellation.
	SimDevice() *sim.Device
	// SetupSeconds is the one-off simulated cost of opening the instance
	// (broadcast input copies).
	SetupSeconds() float64
}

// Oracle runs the whole workload as one shard on one device — the
// single-device reference the chaos suite compares merged outputs against.
func Oracle(w Workload, toolchain string, a *arch.Device) ([]uint32, Times, error) {
	inst, err := w.NewInstance(toolchain, a)
	if err != nil {
		return nil, Times{}, err
	}
	return inst.RunUnits(0, w.Units())
}

// Named constructs a co-execution workload by wire name at the given
// problem size: "vecadd" (size = unit count), "sobel" (size x size image)
// or "mxm" (size x size matrices). It is the vocabulary POST /coexec and
// the figure table's coexec row share.
func Named(name string, size int) (Workload, error) {
	if size < 1 {
		return nil, fmt.Errorf("coexec: workload size %d: want >= 1", size)
	}
	switch strings.ToLower(name) {
	case "vecadd":
		return vecAdd(size), nil
	case "sobel":
		return sobel(size, size), nil
	case "mxm":
		return mxm(size), nil
	}
	return nil, fmt.Errorf("coexec: unknown workload %q (want vecadd, sobel or mxm)", name)
}

// NamedWorkloads lists the wire names Named accepts.
func NamedWorkloads() []string { return []string{"vecadd", "sobel", "mxm"} }

// schedule is p's canonical schedule without shared-memory tiling, which
// the Cell/BE's local store has no room for. What remains is in
// pattern.Space(p) and launches 256-thread groups (16 x 16 for stencils
// and matmuls), which every modelled device accepts.
func schedule(p pattern.Program) pattern.Schedule {
	s := pattern.Canonical(p)
	s.Tile = false
	return s
}

// vecAddUnit is vecadd's unit: 256 contiguous elements.
const vecAddUnit = 256

// vecAdd is c[i] = a[i]*1.5 + b[i] over units*256 elements: the
// transfer-dominated extreme, three words moved per two flops.
func vecAdd(units int) *program {
	n := units * vecAddUnit
	x, y := pattern.X("x", kir.F32), pattern.X("y", kir.F32)
	saxpy := pattern.Fn{
		Params: []pattern.FnParam{{Name: "x", T: kir.F32}, {Name: "y", T: kir.F32}},
		Body:   kir.Add(kir.Mul(x, kir.F(1.5)), y),
	}
	p := &pattern.MapProg{Name: "vecadd", Root: pattern.Zip(saxpy, pattern.In("a", kir.F32), pattern.In("b", kir.F32))}
	rng := workload.NewRNG(101)
	return &program{
		name: "VecAdd", prog: p, sched: schedule(p),
		units: units, wpu: vecAddUnit,
		inputs: map[string][]uint32{
			"a": bench.F32Words(rng.Floats(n, -1, 1)),
			"b": bench.F32Words(rng.Floats(n, -1, 1)),
		},
	}
}

// sobel is the paper's Sobel-X filter on a w x h image, one row per unit.
func sobel(w, h int) *program {
	p, _ := bench.PatternProgram("Sobel")
	return &program{
		name: "Sobel", prog: p, sched: schedule(p),
		units: h, wpu: w, halo: 1,
		inputs: map[string][]uint32{"img": bench.F32Words(workload.GrayImage(w, h, 11))},
	}
}

// mxm is the naive n x n SGEMM, one row of C per unit.
func mxm(n int) *program {
	p, _ := bench.PatternProgram("MxM")
	rng := workload.NewRNG(41)
	return &program{
		name: "MxM", prog: p, sched: schedule(p),
		units: n, wpu: n,
		inputs: map[string][]uint32{
			"A": bench.F32Words(rng.Floats(n*n, -1, 1)),
			"B": bench.F32Words(rng.Floats(n*n, -1, 1)),
		},
	}
}

// program is a map, stencil or matmul pattern program sharded along its
// output: unit u is output words [u*wpu, (u+1)*wpu), which a map computes
// from the same input words, a stencil from its rows plus halo rows on
// each side, and a matmul from the same rows of A and all of B.
type program struct {
	name   string
	prog   pattern.Program
	sched  pattern.Schedule
	units  int
	wpu    int // words per unit: the map unit, the stencil's width or n
	halo   int // input units a shard reads on each side of its own
	inputs map[string][]uint32
}

func (w *program) Name() string      { return w.name }
func (w *program) Units() int        { return w.units }
func (w *program) WordsPerUnit() int { return w.wpu }

// shape is the shape the program is lowered at for n units of input.
func (w *program) shape(n int) pattern.Shape {
	switch w.prog.Kind() {
	case pattern.KindStencil2D:
		return pattern.Shape{W: w.wpu, H: n}
	case pattern.KindMatMul:
		return pattern.Shape{N: w.wpu, H: n}
	default:
		return pattern.Shape{N: n * w.wpu}
	}
}

// broadcast reports whether every shard reads the whole buffer: a
// coefficient table, or a matmul's B.
func (w *program) broadcast(bs pattern.BufSpec) bool {
	return bs.Role == pattern.RoleCoeff || (w.prog.Kind() == pattern.KindMatMul && bs.Name == "B")
}

func (w *program) NewInstance(toolchain string, dev *arch.Device) (Instance, error) {
	d, err := bench.NewDriver(toolchain, dev)
	if err != nil {
		return nil, err
	}
	// Shapes reach a lowering's kernels only as launch arguments, so the
	// whole problem's kernels are every shard's.
	whole, err := pattern.Lower(w.prog, w.sched, w.shape(w.units))
	if err != nil {
		return nil, err
	}
	mod, err := d.Build(whole.Kernels...)
	if err != nil {
		return nil, err
	}
	in := &instance{w: w, d: d, mod: mod, bufs: map[string]bench.Buf{}}
	for _, bs := range whole.Bufs {
		if in.bufs[bs.Name], err = d.Alloc(uint32(4 * bs.Words)); err != nil {
			return nil, err
		}
	}
	// Setup, not any shard, pays for the broadcast inputs and for zeroing
	// a stencil's output, whose border cells no shard writes.
	setup := &pattern.Lowered{Key: whole.Key}
	for _, bs := range whole.Bufs {
		if w.broadcast(bs) || (bs.Role == pattern.RoleOutput && w.prog.Kind() == pattern.KindStencil2D) {
			setup.Bufs = append(setup.Bufs, bs)
		}
	}
	words, err := setup.Contents(pattern.EvalInputs{Bufs: w.inputs})
	if err != nil {
		return nil, err
	}
	d.ResetTimer()
	for _, bs := range setup.Bufs {
		if err := d.Write(in.bufs[bs.Name], words[bs.Name]); err != nil {
			return nil, err
		}
	}
	in.setup = d.Record().Price(dev, d.Toolchain()).EndToEnd
	return in, nil
}

// instance is one device's buffers for the whole problem, which each
// shard's lowering addresses through sub-buffers.
type instance struct {
	w     *program
	d     bench.Driver
	mod   bench.Module
	bufs  map[string]bench.Buf
	setup float64
}

func (in *instance) SimDevice() *sim.Device { return bench.SimDevice(in.d) }
func (in *instance) SetupSeconds() float64  { return in.setup }

func (in *instance) RunUnits(lo, hi int) ([]uint32, Times, error) {
	w := in.w
	if lo < 0 || hi > w.units || lo >= hi {
		return nil, Times{}, fmt.Errorf("coexec: %s: bad unit range [%d,%d) of %d", w.name, lo, hi, w.units)
	}
	iLo, iHi := max(lo-w.halo, 0), min(hi+w.halo, w.units)
	l, err := pattern.Lower(w.prog, w.sched, w.shape(iHi-iLo))
	if err != nil {
		return nil, Times{}, err
	}
	// A shard's buffers are its slices of the device's, except broadcast
	// ones; each phase's cost is priced from the driver's record.
	var t Times
	in.d.ResetTimer()
	bufs := make(map[string]bench.Buf, len(l.Bufs))
	for _, bs := range l.Bufs {
		bufs[bs.Name] = in.bufs[bs.Name]
		if w.broadcast(bs) {
			continue
		}
		bufs[bs.Name] = subBuf(in.bufs[bs.Name], iLo*w.wpu, iHi*w.wpu)
		if bs.Role == pattern.RoleInput {
			if err := in.d.Write(bufs[bs.Name], w.inputs[bs.Name][iLo*w.wpu:iHi*w.wpu]); err != nil {
				return nil, t, err
			}
		}
	}
	a, tc := in.d.Arch(), in.d.Toolchain()
	t.H2D = in.d.Record().Price(a, tc).Transfer
	for _, ln := range l.Launches {
		if err := bench.LaunchOne(in.d, in.mod, bufs, ln); err != nil {
			return nil, t, err
		}
	}
	out := make([]uint32, (hi-lo)*w.wpu)
	if err := in.d.Read(out, subBuf(in.bufs[l.Out], lo*w.wpu, hi*w.wpu)); err != nil {
		return nil, t, err
	}
	p := in.d.Record().Price(a, tc)
	t.Kernel, t.D2H = p.Kernel, p.Transfer-t.H2D
	return out, t, nil
}

// subBuf addresses words [lo,hi) of a buffer of 32-bit words.
func subBuf(b bench.Buf, lo, hi int) bench.Buf {
	return bench.Buf{Addr: b.Addr + uint32(4*lo), Size: uint32(4 * (hi - lo))}
}
