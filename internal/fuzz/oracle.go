package fuzz

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"gpucmp/internal/arch"
	"gpucmp/internal/compiler"
	"gpucmp/internal/kir"
	"gpucmp/internal/ptx"
	"gpucmp/internal/sim"
)

// Program is one self-contained fuzz case: a kernel plus the launch shape
// and input data it runs with. The same Program always produces the same
// outputs on every correct execution path.
type Program struct {
	Seed   uint64
	Kernel *kir.Kernel
	Grid   int // 1-D grid, in work groups
	Block  int // 1-D work-group size
	// Buffers holds the initial contents of every buffer parameter,
	// keyed by parameter name. The entry named Out is the output.
	Buffers map[string][]uint32
	Scalars map[string]uint32
	Out     string
}

func (p *Program) clone(name string) []uint32 {
	src := p.Buffers[name]
	dst := make([]uint32, len(src))
	copy(dst, src)
	return dst
}

// Oracle step budgets. Every legitimate fuzz program finishes in at most a
// few thousand steps per thread; these budgets leave three orders of
// magnitude of headroom while still killing a non-terminating kernel (a
// generator or corpus bug) in well under a second instead of wedging the
// campaign. A kill surfaces as a typed kir.ErrWatchdog / sim.ErrWatchdog
// in the returned error chain.
const (
	refStepBudget = 1 << 22 // interpreter statements per thread
	simStepBudget = 1 << 22 // simulator warp instructions per work-group
)

// Reference executes the program on the kir.Run host interpreter and
// returns the output buffer. This is the semantic ground truth the
// compiled pipelines are judged against.
func Reference(p *Program) ([]uint32, error) {
	bufs := map[string][]uint32{}
	for name := range p.Buffers {
		bufs[name] = p.clone(name)
	}
	err := kir.Run(p.Kernel, kir.RunConfig{
		GridX: p.Grid, GridY: 1,
		BlockX: p.Block, BlockY: 1,
		Buffers:    bufs,
		Scalars:    p.Scalars,
		StepBudget: refStepBudget,
	})
	if err != nil {
		return nil, fmt.Errorf("fuzz: seed %d: reference: %w", p.Seed, err)
	}
	return bufs[p.Out], nil
}

// RunCompiled compiles the program with one personality and executes it on
// one device, returning the output buffer and the launch trace. Buffer
// arguments are staged following the runtime convention: global and
// texture buffers live in simulated global memory and pass their address;
// constant buffers are staged into the constant segment and pass their
// offset (the cudaMemcpyToSymbol path).
func RunCompiled(p *Program, pers compiler.Personality, a *arch.Device) ([]uint32, *sim.Trace, error) {
	pk, err := compiler.Compile(p.Kernel, pers)
	if err != nil {
		return nil, nil, fmt.Errorf("fuzz: seed %d: compile %s: %w", p.Seed, pers.Name, err)
	}
	return Execute(p, pk, a)
}

// Execute runs an already-compiled kernel for the program on one device,
// on the calling goroutine: an oracle program is two work-groups of some
// thousand warp instructions, which cannot repay a goroutine per compute
// unit and the wake-up of a parked processor to run it. The parallel engine
// is held to the sequential one by TestCorpusEngineEquivalenceParallel.
func Execute(p *Program, pk *ptx.Kernel, a *arch.Device) ([]uint32, *sim.Trace, error) {
	dev, err := sim.NewDevice(a)
	if err != nil {
		return nil, nil, err
	}
	dev.Parallel = false
	dev.StepBudget = simStepBudget
	var args []uint32
	var outAddr uint32
	for _, prm := range p.Kernel.Params {
		if !prm.Buffer {
			args = append(args, p.Scalars[prm.Name])
			continue
		}
		data := p.Buffers[prm.Name]
		if prm.Space == kir.Const {
			off, err := dev.ConstAlloc(uint32(4 * len(data)))
			if err != nil {
				return nil, nil, err
			}
			if err := dev.ConstWrite(off, data); err != nil {
				return nil, nil, err
			}
			args = append(args, off)
			continue
		}
		addr, err := dev.Global.Alloc(uint32(4 * len(data)))
		if err != nil {
			return nil, nil, err
		}
		if err := dev.Global.WriteWords(addr, data); err != nil {
			return nil, nil, err
		}
		if prm.Name == p.Out {
			outAddr = addr
		}
		args = append(args, addr)
	}
	tr, err := dev.Launch(pk,
		sim.Dim3{X: p.Grid, Y: 1}, sim.Dim3{X: p.Block, Y: 1}, args)
	if err != nil {
		return nil, nil, err
	}
	out := make([]uint32, len(p.Buffers[p.Out]))
	if err := dev.Global.ReadWords(outAddr, out); err != nil {
		return nil, nil, err
	}
	return out, tr, nil
}

// Divergence describes one disagreement between the reference interpreter
// and a compiled execution, with enough attached context to debug it:
// which words differ, the dynamic trace, the disassembly and the kernel
// source.
type Divergence struct {
	Seed      uint64
	Toolchain string
	Device    string
	Index     int    // first differing output word
	Got, Want uint32 // values at Index
	NumDiff   int    // total differing words
	Trace     *sim.Trace
	Disasm    string
	Source    string
}

// Error renders the full divergence report.
func (d *Divergence) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fuzz: seed %d: %s on %s: out[%d] = %#x, reference %#x (%d word(s) differ)\n",
		d.Seed, d.Toolchain, d.Device, d.Index, d.Got, d.Want, d.NumDiff)
	if d.Trace != nil {
		fmt.Fprintf(&b, "trace: %s\n", d.Trace.Summary())
	}
	fmt.Fprintf(&b, "kernel:\n%s", d.Source)
	if d.Disasm != "" {
		fmt.Fprintf(&b, "disassembly:\n%s", d.Disasm)
	}
	return b.String()
}

// Result summarises one program's trip through the oracle.
type Result struct {
	Seed       uint64
	Divergence *Divergence // nil when every execution agreed
	Executions int         // personality x device runs that completed
	Skipped    []string    // "toolchain/device: reason" resource aborts
	WarpInstrs int64       // total across executions, for campaign stats
	LaneInstrs int64
}

// Toolchains returns the two modelled personalities in a stable order.
func Toolchains() []compiler.Personality {
	return []compiler.Personality{compiler.CUDA(), compiler.OpenCL()}
}

// Check runs the full three-way oracle for one program: the reference
// interpreter once, then each personality's compilation on each device,
// diffing every output bit-for-bit against the reference. The first
// divergence is reported with its trace, source and disassembly. Devices
// that cannot launch the kernel for resource reasons (the paper's ABT
// rows) are recorded as skipped, not failed; any other error is returned.
func Check(p *Program, devices []*arch.Device) (*Result, error) {
	if len(devices) == 0 {
		devices = arch.All()
	}
	want, err := Reference(p)
	if err != nil {
		return nil, err
	}
	res := &Result{Seed: p.Seed}
	for _, pers := range Toolchains() {
		pk, err := compiler.Compile(p.Kernel, pers)
		if err != nil {
			return nil, fmt.Errorf("fuzz: seed %d: compile %s: %w", p.Seed, pers.Name, err)
		}
		for _, a := range devices {
			got, tr, err := Execute(p, pk, a)
			if err != nil {
				if errors.Is(err, sim.ErrOutOfResources) {
					res.Skipped = append(res.Skipped,
						fmt.Sprintf("%s/%s: %v", pers.Name, a.Name, err))
					continue
				}
				return nil, fmt.Errorf("fuzz: seed %d: %s on %s: %w\n%s",
					p.Seed, pers.Name, a.Name, err, pk.Disassemble())
			}
			res.Executions++
			res.WarpInstrs += tr.Dyn.Total
			res.LaneInstrs += tr.LaneInstrs
			if d := diff(p, pers.Name, a.Name, got, want, tr, pk); d != nil {
				res.Divergence = d
				return res, nil
			}
		}
	}
	return res, nil
}

func diff(p *Program, toolchain, device string, got, want []uint32, tr *sim.Trace, pk *ptx.Kernel) *Divergence {
	first, n := -1, 0
	for i := range want {
		if got[i] != want[i] {
			if first < 0 {
				first = i
			}
			n++
		}
	}
	if first < 0 {
		return nil
	}
	return &Divergence{
		Seed:      p.Seed,
		Toolchain: toolchain,
		Device:    device,
		Index:     first,
		Got:       got[first],
		Want:      want[first],
		NumDiff:   n,
		Trace:     tr,
		Disasm:    pk.Disassemble(),
		Source:    kir.Format(p.Kernel),
	}
}

// Campaign runs seeds [start, start+n) through the oracle and aggregates.
type Campaign struct {
	Programs    int
	Executions  int
	Divergences []*Divergence
	Skipped     int
	WarpInstrs  int64
	LaneInstrs  int64
	SkipReasons map[string]int
}

// Summary renders the campaign as a short human-readable block.
func (c *Campaign) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d programs, %d executions, %d divergence(s), %d skipped launch(es)\n",
		c.Programs, c.Executions, len(c.Divergences), c.Skipped)
	fmt.Fprintf(&b, "%d warp-instructions, %d lane-instructions simulated\n",
		c.WarpInstrs, c.LaneInstrs)
	if len(c.SkipReasons) > 0 {
		keys := make([]string, 0, len(c.SkipReasons))
		for k := range c.SkipReasons {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "skipped %dx: %s\n", c.SkipReasons[k], k)
		}
	}
	return b.String()
}

// Add folds one oracle result into the campaign tallies.
func (c *Campaign) Add(r *Result) {
	c.Programs++
	c.Executions += r.Executions
	c.Skipped += len(r.Skipped)
	c.WarpInstrs += r.WarpInstrs
	c.LaneInstrs += r.LaneInstrs
	for _, s := range r.Skipped {
		if c.SkipReasons == nil {
			c.SkipReasons = map[string]int{}
		}
		c.SkipReasons[s]++
	}
	if r.Divergence != nil {
		c.Divergences = append(c.Divergences, r.Divergence)
	}
}
