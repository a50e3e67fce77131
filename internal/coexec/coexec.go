package coexec

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/fault"
)

// ErrNoDevices is returned when Run is given an empty device set.
var ErrNoDevices = errors.New("coexec: no devices")

// ShardError is the typed permanent failure for one shard: its retry
// budget ran out on every device it was offered to. It wraps the last
// underlying error, so errors.Is sees fault.ErrTransfer and friends.
type ShardError struct {
	Shard    int
	Device   string
	Attempts int
	Err      error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("coexec: shard %d failed permanently on %s after %d attempts: %v",
		e.Shard, e.Device, e.Attempts, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// Options configures one co-execution run.
type Options struct {
	// Devices are the co-executing devices. At least one is required.
	// Each runs its native toolchain, bench.Toolchains(a)[0] (CUDA on
	// NVIDIA, OpenCL elsewhere — the SNIPPETS.md §3 split).
	Devices []*arch.Device
	// ShardsPerDevice scales the shard count: shards = ShardsPerDevice *
	// len(Devices), clamped to the unit count (default 4). More shards
	// than devices is what makes redistribution and load balancing work.
	ShardsPerDevice int
	// Weights skews the static shard assignment: device i gets a share of
	// the shards proportional to Weights[i] (len must match Devices;
	// non-positive entries count as the smallest positive weight). Empty =
	// equal shares. Callers typically weight by transfer-inclusive
	// single-device speed, so the static split finishes together. The
	// same weights deal out every redistributed shard.
	Weights []float64
	// MaxAttempts bounds one shard's dispatch count before the run fails
	// with a ShardError (default 16). Set it above the injector's
	// MaxPerKey plus the device count: transfer faults are capped per
	// shard across devices, and each device can die at most once.
	MaxAttempts int
	// Injector supplies the deterministic per-(seed,device,shard) fault
	// schedule (nil = no faults). Its attempt counters are part of the
	// draw, so a run replays only on a fresh injector.
	Injector *fault.Injector
	// Metrics accumulates per-device counters across runs (nil = none).
	Metrics *Metrics
	// Kill maps a device name to a completed-shard count after which the
	// device is deterministically lost — the reproducible mid-run kill
	// the coexec row's recovery section and POST /coexec use.
	Kill map[string]int
}

// DeviceReport is one device's share of a finished run.
type DeviceReport struct {
	Device    string `json:"device"`
	Toolchain string `json:"toolchain"`

	Shards          int  `json:"shards"`          // shards completed here
	Retries         int  `json:"retries"`         // failed attempts retried from here
	Redistributions int  `json:"redistributions"` // shards completed here after first trying elsewhere
	Lost            bool `json:"lost,omitempty"`

	SetupSeconds  float64 `json:"setup_seconds"`
	H2DSeconds    float64 `json:"h2d_seconds"`
	KernelSeconds float64 `json:"kernel_seconds"`
	D2HSeconds    float64 `json:"d2h_seconds"`
	// BusySeconds serialises every phase; SpanSeconds overlaps copies
	// with compute on the two-engine timeline.
	BusySeconds float64 `json:"busy_seconds"`
	SpanSeconds float64 `json:"span_seconds"`
}

// Report describes a finished co-execution run.
type Report struct {
	Workload string         `json:"workload"`
	Units    int            `json:"units"`
	Shards   int            `json:"shards"`
	Devices  []DeviceReport `json:"devices"`

	// Lost names the devices that died mid-run; Degraded marks a run that
	// completed without its full device set — the typed degraded marker
	// the server surfaces.
	Lost          []string `json:"lost,omitempty"`
	Degraded      bool     `json:"degraded,omitempty"`
	DegradedCause string   `json:"degraded_cause,omitempty"`

	Retries         int `json:"retries"`
	Redistributions int `json:"redistributions"`

	// MakespanSeconds is the simulated end-to-end time with copy/compute
	// overlap; NoOverlapSeconds is the same schedule with every phase
	// serialised per device (the overlap win is the difference).
	MakespanSeconds  float64 `json:"makespan_seconds"`
	NoOverlapSeconds float64 `json:"no_overlap_seconds"`
}

type shardRange struct{ lo, hi int }

// runner is the state of one Run call. One loop on the caller's goroutine
// drives it, so nothing in it is shared.
type runner struct {
	w      Workload
	opts   Options
	names  []string // unique per-device injector keys ("i:Name")
	tcs    []string
	insts  []Instance
	shards []shardRange

	// queues[i] is device i's backlog: its static share at the start,
	// plus whatever redistribution deals it later.
	queues [][]int

	outputs     [][]uint32 // checkpoint per shard; nil until completed
	completed   int
	attempts    []int
	firstDev    []int
	alive       []bool
	aliveCount  int
	killArmed   []bool
	completedOn []int
	retriesOn   []int
	redistOn    []int
	engines     []engine
	lost        []string
}

// Run partitions the workload into shards, co-executes them across the
// devices, and returns the merged output words plus the run report. The
// merged output is bit-identical to Oracle() on any single device, under
// any injected failure schedule, because shards carry no cross-shard
// state and the simulator itself is bit-exact.
//
// The schedule is simulated, not raced: one loop on the caller's
// goroutine repeatedly runs the next shard of the alive device whose
// simulated timeline ends earliest (ties to the lowest index). No host
// timing enters the schedule, so the same workload, options and fresh
// injector give the same Report, byte for byte.
//
// Cancellation: when ctx is cancelled, the in-flight simulated kernel is
// killed (sim.Device.Cancel) and Run returns ctx.Err() wrapped.
func Run(ctx context.Context, w Workload, opts Options) ([]uint32, *Report, error) {
	nd := len(opts.Devices)
	if nd == 0 {
		return nil, nil, ErrNoDevices
	}
	spd := opts.ShardsPerDevice
	if spd <= 0 {
		spd = 4
	}
	nShards := min(spd*nd, w.Units())
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 16
	}

	r := &runner{
		w:           w,
		opts:        opts,
		names:       make([]string, nd),
		tcs:         make([]string, nd),
		insts:       make([]Instance, nd),
		shards:      make([]shardRange, nShards),
		queues:      make([][]int, nd),
		outputs:     make([][]uint32, nShards),
		attempts:    make([]int, nShards),
		firstDev:    make([]int, nShards),
		alive:       make([]bool, nd),
		aliveCount:  nd,
		killArmed:   make([]bool, nd),
		completedOn: make([]int, nd),
		retriesOn:   make([]int, nd),
		redistOn:    make([]int, nd),
		engines:     make([]engine, nd),
	}
	for i, a := range opts.Devices {
		tc := bench.Toolchains(a)[0].Name
		inst, err := w.NewInstance(tc, a)
		if err != nil {
			return nil, nil, fmt.Errorf("coexec: open %s on %s: %w", w.Name(), a.Name, err)
		}
		r.names[i] = fmt.Sprintf("%d:%s", i, a.Name)
		r.tcs[i] = tc
		r.insts[i] = inst
		r.alive[i] = true
		_, r.killArmed[i] = opts.Kill[a.Name]
	}
	// Contiguous even split of units into shards.
	per, rem := w.Units()/nShards, w.Units()%nShards
	lo := 0
	for s := range r.shards {
		hi := lo + per
		if s < rem {
			hi++
		}
		r.shards[s] = shardRange{lo, hi}
		r.firstDev[s] = -1
		lo = hi
	}
	// Static weighted assignment: device i gets a contiguous block of
	// shards sized by its weight share (largest-remainder rounding).
	next := 0
	for i, count := range weightedCounts(nShards, nd, opts.Weights) {
		for k := 0; k < count; k++ {
			r.queues[i] = append(r.queues[i], next)
			next++
		}
	}

	// Kill the in-flight simulated kernel when ctx ends; the loop sees
	// ctx.Err() before its next shard.
	stop := context.AfterFunc(ctx, func() {
		for _, inst := range r.insts {
			if dev := inst.SimDevice(); dev != nil {
				dev.Cancel()
			}
		}
	})
	defer stop()

	for r.completed < nShards && ctx.Err() == nil {
		i := r.nextDevice()
		s := r.queues[i][0]
		r.queues[i] = r.queues[i][1:]
		if err := r.process(ctx, i, s); err != nil && ctx.Err() == nil {
			return nil, r.report(), err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, r.report(), fmt.Errorf("coexec: run cancelled: %w", err)
	}

	// Merge checkpointed shard outputs in shard order.
	out := make([]uint32, w.Units()*w.WordsPerUnit())
	for s, sh := range r.shards {
		copy(out[sh.lo*w.WordsPerUnit():], r.outputs[s])
	}
	return out, r.report(), nil
}

// nextDevice picks the alive device with queued work whose simulated
// timeline ends earliest, the lowest index on a tie. Some device always
// has work while shards are outstanding: a shard leaves one queue only to
// complete, to fail the run, or to be dealt into another alive queue.
func (r *runner) nextDevice() int {
	best, bestAt := -1, 0.0
	for i, q := range r.queues {
		if !r.alive[i] || len(q) == 0 {
			continue
		}
		if at := r.insts[i].SetupSeconds() + r.engines[i].span(); best < 0 || at < bestAt {
			best, bestAt = i, at
		}
	}
	return best
}

// weightedCounts splits n shards across nd devices proportionally to the
// weights (equal shares when empty), using largest-remainder rounding so
// the counts always sum to n.
func weightedCounts(n, nd int, weights []float64) []int {
	w := make([]float64, nd)
	var sum float64
	minPos := 0.0
	for i := 0; i < nd; i++ {
		if i < len(weights) && weights[i] > 0 {
			w[i] = weights[i]
			if minPos == 0 || w[i] < minPos {
				minPos = w[i]
			}
		}
	}
	for i := range w {
		if w[i] <= 0 {
			if minPos > 0 {
				w[i] = minPos
			} else {
				w[i] = 1
			}
		}
		sum += w[i]
	}
	counts := make([]int, nd)
	type rem struct {
		i    int
		frac float64
	}
	rems := make([]rem, nd)
	assigned := 0
	for i := range w {
		exact := float64(n) * w[i] / sum
		counts[i] = int(exact)
		assigned += counts[i]
		rems[i] = rem{i, exact - float64(counts[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for k := 0; assigned < n; k++ {
		counts[rems[k%nd].i]++
		assigned++
	}
	return counts
}

// process runs shard s on device i: the deterministic kill, then the
// injected fault, then the shard itself. A failure that ends the run is
// returned; anything recoverable redistributes the shard.
func (r *runner) process(ctx context.Context, i, s int) error {
	name := r.names[i]
	sh := r.shards[s]
	r.attempts[s]++
	if r.firstDev[s] < 0 {
		r.firstDev[s] = i
	}

	// Deterministic mid-run kill, armed per device by Options.Kill.
	if r.killArmed[i] && r.completedOn[i] >= r.opts.Kill[r.opts.Devices[i].Name] {
		r.killArmed[i] = false
		if r.loseDevice(i, s) {
			return nil
		}
	}

	// Deterministic injected shard fault.
	if f := r.opts.Injector.ShardLaunch(name, fmt.Sprintf("%s/%d", r.w.Name(), s)); f != nil {
		switch f.Kind {
		case fault.KindDeviceLost:
			if r.loseDevice(i, s) {
				return nil
			}
			// Survivor guard: the last living device shrugs the fault off —
			// losing it would be process-fatal, outside the recovery model.
		case fault.KindTransferError:
			r.opts.Metrics.bump(name, func(c *DeviceCounts) { c.TransferErrors++ })
			return r.retry(i, s, f.Err)
		}
	}

	out, times, err := r.insts[i].RunUnits(sh.lo, sh.hi)
	if err != nil {
		if ctx.Err() != nil {
			return err // the kernel was cancelled, not faulty
		}
		return r.retry(i, s, err)
	}
	r.completedOn[i]++
	r.engines[i].add(times)
	r.outputs[s] = out
	r.completed++
	if r.firstDev[s] != i {
		r.redistOn[i]++
		r.opts.Metrics.bump(name, func(c *DeviceCounts) { c.Redistributions++ })
	}
	r.opts.Metrics.bump(name, func(c *DeviceCounts) { c.Shards++ })
	return nil
}

// deal is the one redistribution rule: it appends shards to the alive
// devices other than `not`, in counts proportional to their weights
// (weightedCounts' largest-remainder rounding, so the same orphans always
// land in the same queues). `not` takes them only when it is the sole
// survivor.
func (r *runner) deal(shards []int, not int) {
	var to []int
	var weights []float64
	for j := range r.queues {
		if r.alive[j] && j != not {
			to = append(to, j)
			w := 0.0
			if j < len(r.opts.Weights) {
				w = r.opts.Weights[j]
			}
			weights = append(weights, w)
		}
	}
	if len(to) == 0 {
		to, weights = []int{not}, []float64{1}
	}
	next := 0
	for k, count := range weightedCounts(len(shards), len(to), weights) {
		r.queues[to[k]] = append(r.queues[to[k]], shards[next:next+count]...)
		next += count
	}
}

// loseDevice marks device i dead and deals its current shard s and its
// whole backlog to the survivors, unless it is the last survivor (the
// guard that keeps every failure schedule completable). It returns whether
// the device actually died.
func (r *runner) loseDevice(i, s int) bool {
	if r.aliveCount <= 1 || !r.alive[i] {
		return false
	}
	r.alive[i] = false
	r.aliveCount--
	r.lost = append(r.lost, r.opts.Devices[i].Name)
	r.opts.Metrics.bump(r.names[i], func(c *DeviceCounts) { c.Lost = 1 })
	orphans := append([]int{s}, r.queues[i]...)
	r.queues[i] = nil
	for _, o := range orphans {
		// Work the dead device never started still counts as its own for
		// redistribution accounting: completing it elsewhere IS the
		// redistribution the report and /metrics surface.
		if r.firstDev[o] < 0 {
			r.firstDev[o] = i
		}
	}
	r.deal(orphans, i)
	return true
}

// retry deals a failed shard to another device, or fails the whole run
// with a typed ShardError once the shard's attempt budget is spent. There
// is no backoff: a fault draw depends on (seed, device, shard, attempt),
// never on time, so waiting would change nothing.
func (r *runner) retry(i, s int, cause error) error {
	if r.attempts[s] >= r.opts.MaxAttempts {
		return &ShardError{Shard: s, Device: r.opts.Devices[i].Name, Attempts: r.attempts[s], Err: cause}
	}
	r.retriesOn[i]++
	r.opts.Metrics.bump(r.names[i], func(c *DeviceCounts) { c.Retries++ })
	r.deal([]int{s}, i)
	return nil
}

// report assembles the per-device and aggregate view of the run.
func (r *runner) report() *Report {
	rep := &Report{
		Workload: r.w.Name(),
		Units:    r.w.Units(),
		Shards:   len(r.shards),
		Lost:     append([]string(nil), r.lost...),
	}
	for i, a := range r.opts.Devices {
		e := &r.engines[i]
		setup := r.insts[i].SetupSeconds()
		dr := DeviceReport{
			Device:          a.Name,
			Toolchain:       r.tcs[i],
			Shards:          r.completedOn[i],
			Retries:         r.retriesOn[i],
			Redistributions: r.redistOn[i],
			Lost:            !r.alive[i],
			SetupSeconds:    setup,
			H2DSeconds:      e.h2d,
			KernelSeconds:   e.ker,
			D2HSeconds:      e.d2h,
			BusySeconds:     setup + e.busy,
			SpanSeconds:     setup + e.span(),
		}
		rep.Devices = append(rep.Devices, dr)
		rep.Retries += dr.Retries
		rep.Redistributions += dr.Redistributions
		if dr.SpanSeconds > rep.MakespanSeconds {
			rep.MakespanSeconds = dr.SpanSeconds
		}
		if dr.BusySeconds > rep.NoOverlapSeconds {
			rep.NoOverlapSeconds = dr.BusySeconds
		}
	}
	if len(rep.Lost) > 0 {
		rep.Degraded = true
		rep.DegradedCause = "device lost mid-run: " + rep.Lost[0]
	}
	return rep
}
