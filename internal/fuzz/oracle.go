package fuzz

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"

	"gpucmp/internal/arch"
	"gpucmp/internal/compiler"
	"gpucmp/internal/kir"
	"gpucmp/internal/pattern"
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

// plan is the program as a one-launch pattern plan, which both the
// reference and the device executions run.
func (p *Program) plan() (*pattern.Lowered, pattern.EvalInputs, error) {
	return pattern.OneLaunch(p.Kernel, p.Grid, p.Block, p.Buffers, p.Scalars, p.Out)
}

// simStepBudget is the oracle's simulator budget, in warp instructions per
// work-group (the reference runs under the host executor's own). Fuzz
// programs take a few thousand; a non-terminating one (a generator or
// corpus bug) dies in well under a second with a typed sim.ErrWatchdog.
const simStepBudget = 1 << 22

// Reference executes the program on the kir.Run host interpreter and
// returns the output buffer. This is the semantic ground truth the
// compiled pipelines are judged against.
func Reference(p *Program) ([]uint32, error) {
	l, in, err := p.plan()
	var out []uint32
	if err == nil {
		out, err = pattern.RunLowered(l, in)
	}
	if err != nil {
		return nil, fmt.Errorf("fuzz: seed %d: reference: %w", p.Seed, err)
	}
	return out, nil
}

// Execute runs an already-compiled kernel for the program on one device,
// on the calling goroutine: an oracle program is two work-groups of some
// thousand warp instructions, which cannot repay a goroutine per compute
// unit and the wake-up of a parked processor to run it. The parallel engine
// is held to the sequential one by TestCorpusEngineEquivalenceParallel.
func Execute(p *Program, pk *ptx.Kernel, a *arch.Device) ([]uint32, *sim.Trace, error) {
	l, in, err := p.plan()
	if err != nil {
		return nil, nil, err
	}
	dev, err := sim.NewDevice(a)
	if err != nil {
		return nil, nil, err
	}
	dev.Parallel = false
	dev.StepBudget = simStepBudget
	out, traces, err := pattern.RunDevice(l, in, dev, []*ptx.Kernel{pk})
	if err != nil {
		return nil, nil, err
	}
	return out, traces[0], nil
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
//
// The reference, the compiles and the executions share nothing but the
// read-only program, so they run side by side and are folded afterwards in
// the order a sequential loop would have met them: the Result and every
// error are what that loop returned. What it would not have run — the work
// behind a failing compile or execution — is now done and discarded.
func Check(p *Program, devices []*arch.Device) (*Result, error) {
	return check(p, devices, compiler.Compile, Execute)
}

// caught is a panic recovered on one of check's goroutines, kept with the
// stack it died on until the fold re-raises it on the caller.
type caught struct {
	val   any
	stack []byte
}

// raise re-panics on the calling goroutine, naming what died for which seed.
func (c *caught) raise(seed uint64, what string) {
	panic(fmt.Sprintf("fuzz: seed %d: %s: panic: %v\n\n%s", seed, what, c.val, c.stack))
}

// guard runs f and returns the panic it died of, if any.
func guard(f func()) (c *caught) {
	defer func() {
		if v := recover(); v != nil {
			c = &caught{v, debug.Stack()}
		}
	}()
	f()
	return nil
}

// compileFunc and executeFunc are the signatures of compiler.Compile and
// Execute, the two steps check fans out.
type (
	compileFunc func(*kir.Kernel, compiler.Personality) (*ptx.Kernel, error)
	executeFunc func(*Program, *ptx.Kernel, *arch.Device) ([]uint32, *sim.Trace, error)
)

// check is Check with its two steps passed in, so that the fold tests can
// plant an outcome per toolchain and per (toolchain, device); everything
// else passes compiler.Compile and Execute.
func check(p *Program, devices []*arch.Device, compile compileFunc, execute executeFunc) (*Result, error) {
	if len(devices) == 0 {
		devices = arch.All()
	}
	toolchains := Toolchains()
	type build struct {
		pk   *ptx.Kernel
		err  error
		died *caught
	}
	type run struct {
		got  []uint32
		tr   *sim.Trace
		err  error
		died *caught
	}
	// Every goroutine writes its own element; wg.Wait orders the writes
	// before the fold's reads.
	builds := make([]build, len(toolchains))
	runs := make([]run, len(toolchains)*len(devices))

	// A compile runs beside the reference, but its executions wait for the
	// reference's verdict: a program the interpreter rejects or kills (a
	// shrink candidate that hangs) must not cost ten watchdog budgets more.
	var (
		wg      sync.WaitGroup
		refOK   bool
		refDone = make(chan struct{}) // closed once refOK is final
	)
	wg.Add(len(toolchains))
	for ti, pers := range toolchains {
		go func() {
			defer wg.Done()
			b := &builds[ti]
			b.died = guard(func() { b.pk, b.err = compile(p.Kernel, pers) })
			if <-refDone; !refOK || b.pk == nil {
				return
			}
			wg.Add(len(devices)) // this goroutine's own count keeps the group open
			for di, a := range devices {
				go func() {
					defer wg.Done()
					r := &runs[ti*len(devices)+di]
					r.died = guard(func() { r.got, r.tr, r.err = execute(p, b.pk, a) })
				}()
			}
		}()
	}
	want, err := func() ([]uint32, error) {
		defer close(refDone) // also when Reference panics: the compiles must not wait forever
		want, err := Reference(p)
		refOK = err == nil
		return want, err
	}()
	wg.Wait()

	if err != nil {
		return nil, err
	}
	res := &Result{Seed: p.Seed}
	for ti, pers := range toolchains {
		b := &builds[ti]
		if b.died != nil {
			b.died.raise(p.Seed, "compile "+pers.Name)
		}
		if b.err != nil {
			return nil, fmt.Errorf("fuzz: seed %d: compile %s: %w", p.Seed, pers.Name, b.err)
		}
		for di, a := range devices {
			r := &runs[ti*len(devices)+di]
			if r.died != nil {
				r.died.raise(p.Seed, pers.Name+" on "+a.Name)
			}
			if r.err != nil {
				if errors.Is(r.err, sim.ErrOutOfResources) {
					res.Skipped = append(res.Skipped,
						fmt.Sprintf("%s/%s: %v", pers.Name, a.Name, r.err))
					continue
				}
				return nil, fmt.Errorf("fuzz: seed %d: %s on %s: %w\n%s",
					p.Seed, pers.Name, a.Name, r.err, b.pk.Disassemble())
			}
			res.Executions++
			res.WarpInstrs += r.tr.Dyn.Total
			res.LaneInstrs += r.tr.LaneInstrs
			if d := diff(p, pers.Name, a.Name, r.got, want, r.tr, b.pk); d != nil {
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
