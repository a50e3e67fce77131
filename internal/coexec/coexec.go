package coexec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/clock"
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
	Devices []*arch.Device
	// Toolchains pairs each device with a runtime ("cuda"/"opencl").
	// Empty = each device's native toolchain, bench.Toolchains(a)[0]
	// (CUDA on NVIDIA, OpenCL elsewhere — the SNIPPETS.md §3 split).
	Toolchains []string
	// ShardsPerDevice scales the shard count: shards = ShardsPerDevice *
	// len(Devices), clamped to the unit count (default 4). More shards
	// than devices is what makes redistribution and load balancing work.
	ShardsPerDevice int
	// Weights skews the static shard assignment: device i gets a share of
	// the shards proportional to Weights[i] (len must match Devices;
	// non-positive entries count as the smallest positive weight). Empty =
	// equal shares. Callers typically weight by transfer-inclusive
	// single-device speed, so the static split finishes together.
	Weights []float64
	// MaxAttempts bounds one shard's dispatch count before the run fails
	// with a ShardError (default 16). Set it above the injector's
	// MaxPerKey plus the device count: transfer faults are capped per
	// shard across devices, and each device can die at most once.
	MaxAttempts int
	// BaseDelay/MaxDelay shape the capped exponential backoff between
	// retries of a failed shard (defaults 200µs / 5ms).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// StragglerAfter is how long a shard may stay in flight on one device
	// before a duplicate is dispatched to the survivors; first completion
	// wins, bit-identically (default 100ms, <0 disables).
	StragglerAfter time.Duration
	// Injector supplies the deterministic per-(seed,device,shard) fault
	// schedule (nil = no faults).
	Injector *fault.Injector
	// Metrics accumulates per-device counters across runs (nil = none).
	Metrics *Metrics
	// Kill maps a device name to a completed-shard count after which the
	// device is deterministically lost — the reproducible mid-run kill
	// the CI smoke and the recovery-overhead benchmark use.
	Kill map[string]int

	// clock stamps in-flight shards and times retry backoff and the
	// straggler watch (nil = the wall clock).
	clock clock.Clock
}

// DeviceReport is one device's share of a finished run.
type DeviceReport struct {
	Device    string `json:"device"`
	Toolchain string `json:"toolchain"`

	Shards          int  `json:"shards"`          // attempts completed here (incl. discarded duplicates)
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
	Stragglers      int `json:"stragglers"`

	// MakespanSeconds is the simulated end-to-end time with copy/compute
	// overlap; NoOverlapSeconds is the same schedule with every phase
	// serialised per device (the overlap win is the difference).
	MakespanSeconds  float64 `json:"makespan_seconds"`
	NoOverlapSeconds float64 `json:"no_overlap_seconds"`
}

type shardRange struct{ lo, hi int }

// runner is the shared state of one Run call.
type runner struct {
	w      Workload
	opts   Options
	names  []string // unique per-device injector keys ("i:Name")
	tcs    []string
	insts  []Instance
	shards []shardRange

	stop chan struct{} // closed exactly once when the run is over

	mu sync.Mutex
	// queues[i] is device i's backlog. Assignment is static (weighted
	// deal at startup) so the simulated makespan is deterministic: shards
	// move between devices only on faults, device loss and straggler
	// migration — never because of host-scheduler timing.
	queues [][]int
	// wake[i] signals worker i that its queue gained a shard (buffered 1;
	// a pending signal is never lost).
	wake []chan struct{}

	outputs      [][]uint32
	completed    int
	attempts     []int
	firstDev     []int
	inflightAt   []time.Time
	inflightDev  []int
	dups         []int // straggler duplicates dispatched per shard
	alive        []bool
	aliveCount   int
	killArmed    []bool
	completedOn  []int
	retriesOn    []int
	redistOn     []int
	stragglerCnt int
	engines      []engine
	lost         []string
	failure      error
	allDone      chan struct{}
	failed       chan struct{}
}

// Run partitions the workload into shards, co-executes them across the
// devices, and returns the merged output words plus the run report. The
// merged output is bit-identical to Oracle() on any single device, under
// any injected failure schedule, because shards carry no cross-shard
// state and the simulator itself is bit-exact.
//
// Cancellation: when ctx is cancelled, every in-flight simulated kernel
// on every device is killed (sim.Device.Cancel) and Run returns ctx.Err()
// wrapped; no goroutine outlives the call.
func Run(ctx context.Context, w Workload, opts Options) ([]uint32, *Report, error) {
	nd := len(opts.Devices)
	if nd == 0 {
		return nil, nil, ErrNoDevices
	}
	spd := opts.ShardsPerDevice
	if spd <= 0 {
		spd = 4
	}
	nShards := spd * nd
	if nShards > w.Units() {
		nShards = w.Units()
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 16
	}
	if opts.BaseDelay <= 0 {
		opts.BaseDelay = 200 * time.Microsecond
	}
	if opts.MaxDelay <= 0 {
		opts.MaxDelay = 5 * time.Millisecond
	}
	if opts.StragglerAfter == 0 {
		opts.StragglerAfter = 100 * time.Millisecond
	}
	if opts.clock == nil {
		opts.clock = clock.Real{}
	}

	r := &runner{
		w:           w,
		opts:        opts,
		names:       make([]string, nd),
		tcs:         make([]string, nd),
		insts:       make([]Instance, nd),
		shards:      make([]shardRange, nShards),
		queues:      make([][]int, nd),
		wake:        make([]chan struct{}, nd),
		stop:        make(chan struct{}),
		outputs:     make([][]uint32, nShards),
		attempts:    make([]int, nShards),
		firstDev:    make([]int, nShards),
		inflightAt:  make([]time.Time, nShards),
		inflightDev: make([]int, nShards),
		dups:        make([]int, nShards),
		alive:       make([]bool, nd),
		aliveCount:  nd,
		killArmed:   make([]bool, nd),
		completedOn: make([]int, nd),
		retriesOn:   make([]int, nd),
		redistOn:    make([]int, nd),
		engines:     make([]engine, nd),
		allDone:     make(chan struct{}),
		failed:      make(chan struct{}),
	}
	for i, a := range opts.Devices {
		tc := ""
		if i < len(opts.Toolchains) {
			tc = opts.Toolchains[i]
		}
		if tc == "" {
			tc = bench.Toolchains(a)[0].Name
		}
		inst, err := w.NewInstance(tc, a)
		if err != nil {
			return nil, nil, fmt.Errorf("coexec: open %s on %s: %w", w.Name(), a.Name, err)
		}
		r.names[i] = fmt.Sprintf("%d:%s", i, a.Name)
		r.tcs[i] = tc
		r.insts[i] = inst
		r.alive[i] = true
		r.wake[i] = make(chan struct{}, 1)
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
		r.inflightDev[s] = -1
		lo = hi
	}
	// Static weighted assignment: device i gets a contiguous block of
	// shards sized by its weight share (largest-remainder rounding), so
	// which device runs which shard never depends on host timing.
	next := 0
	for i, count := range weightedCounts(nShards, nd, opts.Weights) {
		for k := 0; k < count; k++ {
			r.queues[i] = append(r.queues[i], next)
			next++
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < nd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.worker(ctx, i)
		}(i)
	}
	if opts.StragglerAfter > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.stragglerWatch()
		}()
	}

	select {
	case <-r.allDone:
	case <-r.failed:
	case <-ctx.Done():
	}
	close(r.stop)
	// Kill in-flight simulated kernels so blocked workers return promptly;
	// the run is over either way.
	for _, inst := range r.insts {
		if dev := inst.SimDevice(); dev != nil {
			dev.Cancel()
		}
	}
	wg.Wait()

	rep := r.report()
	if err := ctx.Err(); err != nil {
		return nil, rep, fmt.Errorf("coexec: run cancelled: %w", err)
	}
	r.mu.Lock()
	failure := r.failure
	r.mu.Unlock()
	if failure != nil {
		return nil, rep, failure
	}

	// Merge checkpointed shard outputs in shard order.
	out := make([]uint32, w.Units()*w.WordsPerUnit())
	for s, sh := range r.shards {
		copy(out[sh.lo*w.WordsPerUnit():], r.outputs[s])
	}
	return out, rep, nil
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

// worker serially executes shards from device i's own queue until the run
// stops or the device is lost. It never steals: shards arrive only via the
// static assignment, fault redistribution or straggler migration, keeping
// the simulated schedule independent of host timing.
func (r *runner) worker(ctx context.Context, i int) {
	for {
		r.mu.Lock()
		if !r.alive[i] {
			r.mu.Unlock()
			return
		}
		s := -1
		if len(r.queues[i]) > 0 {
			s = r.queues[i][0]
			r.queues[i] = r.queues[i][1:]
		}
		r.mu.Unlock()
		if s < 0 {
			select {
			case <-r.stop:
				return
			case <-r.wake[i]:
				continue
			}
		}
		if !r.process(ctx, i, s) {
			return
		}
	}
}

// process runs one dequeued shard on device i; it returns false when the
// device died and the worker must exit.
func (r *runner) process(ctx context.Context, i, s int) bool {
	name := r.names[i]
	sh := r.shards[s]
	shardKey := fmt.Sprintf("%s/%d", r.w.Name(), s)

	r.mu.Lock()
	if r.outputs[s] != nil {
		r.mu.Unlock()
		return true // duplicate of a checkpointed shard: never recompute
	}
	attempt := r.attempts[s]
	r.attempts[s]++
	if r.firstDev[s] < 0 {
		r.firstDev[s] = i
	}
	r.inflightAt[s] = r.opts.clock.Now()
	r.inflightDev[s] = i

	// Deterministic mid-run kill, armed per device by Options.Kill.
	if r.killArmed[i] && r.completedOn[i] >= r.opts.Kill[r.opts.Devices[i].Name] {
		r.killArmed[i] = false
		if killed := r.loseDeviceLocked(i, s); killed {
			r.mu.Unlock()
			return false
		}
	}
	r.mu.Unlock()

	// Deterministic injected shard fault.
	if f := r.opts.Injector.ShardLaunch(name, shardKey); f != nil {
		switch f.Kind {
		case fault.KindDeviceLost:
			r.mu.Lock()
			killed := r.loseDeviceLocked(i, s)
			r.mu.Unlock()
			if killed {
				return false
			}
			// Survivor guard: the last living device shrugs the fault off —
			// losing it would be process-fatal, outside the recovery model.
		case fault.KindTransferError:
			r.opts.Metrics.bump(name, func(c *DeviceCounts) { c.TransferErrors++ })
			return r.retry(i, s, attempt, f.Err)
		}
	}

	out, times, err := r.insts[i].RunUnits(sh.lo, sh.hi)
	if err != nil {
		select {
		case <-r.stop:
			return false // cancelled or finished; the error is an artifact
		default:
		}
		if ctx.Err() != nil {
			return false
		}
		return r.retry(i, s, attempt, err)
	}

	r.mu.Lock()
	r.inflightAt[s] = time.Time{}
	r.inflightDev[s] = -1
	r.completedOn[i]++
	r.engines[i].add(times)
	if r.outputs[s] == nil {
		r.outputs[s] = out
		r.completed++
		if r.firstDev[s] != i {
			r.redistOn[i]++
			r.opts.Metrics.bump(name, func(c *DeviceCounts) { c.Redistributions++ })
		}
		if r.completed == len(r.shards) {
			close(r.allDone)
		}
	}
	r.mu.Unlock()
	r.opts.Metrics.bump(name, func(c *DeviceCounts) { c.Shards++ })
	return true
}

// pushLocked appends shard s to device dev's queue and signals its worker.
// Callers must hold r.mu.
func (r *runner) pushLocked(dev, s int) {
	r.queues[dev] = append(r.queues[dev], s)
	select {
	case r.wake[dev] <- struct{}{}:
	default: // a wakeup is already pending
	}
}

// targetLocked picks the alive device with the least weighted backlog —
// queue length divided by the device's speed weight, so a slow device is
// not handed the same share of orphaned work as a fast one — preferring
// any device other than `not` (pass -1 for no preference). Callers must
// hold r.mu. Returns -1 only if nothing is alive (impossible: the survivor
// guard keeps at least one device up).
func (r *runner) targetLocked(not int) int {
	best, bestScore := -1, 0.0
	for i := range r.queues {
		if !r.alive[i] || i == not {
			continue
		}
		w := 1.0
		if i < len(r.opts.Weights) && r.opts.Weights[i] > 0 {
			w = r.opts.Weights[i]
		}
		score := float64(len(r.queues[i])+1) / w
		if best < 0 || score < bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 && not >= 0 && r.alive[not] {
		best = not // sole survivor: it takes its own retry
	}
	return best
}

// loseDeviceLocked marks device i dead, redistributes its entire backlog
// plus its current shard to the survivors, unless it is the last survivor
// (the guard that keeps every failure schedule completable). Returns
// whether the device actually died.
func (r *runner) loseDeviceLocked(i, s int) bool {
	if r.aliveCount <= 1 || !r.alive[i] {
		return false
	}
	r.alive[i] = false
	r.aliveCount--
	r.lost = append(r.lost, r.opts.Devices[i].Name)
	r.inflightAt[s] = time.Time{}
	r.inflightDev[s] = -1
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
	// Deal the orphans to the survivors proportionally to their weights —
	// NOT by live queue depth, which reflects how far each worker happens
	// to have drained its backlog at this wall-clock instant and would
	// make the simulated post-loss makespan wobble run to run. The orphan
	// set is deterministic (static queues), so this keeps a killed run's
	// report byte-stable.
	alive := make([]int, 0, len(r.queues))
	weights := make([]float64, 0, len(r.queues))
	for j := range r.queues {
		if r.alive[j] {
			alive = append(alive, j)
			w := 0.0
			if j < len(r.opts.Weights) {
				w = r.opts.Weights[j]
			}
			weights = append(weights, w)
		}
	}
	next := 0
	for k, count := range weightedCounts(len(orphans), len(alive), weights) {
		for c := 0; c < count; c++ {
			r.pushLocked(alive[k], orphans[next])
			next++
		}
	}
	return true
}

// retry backs a failed shard attempt off (capped exponential, interruptible)
// and requeues it for any surviving device; it fails the whole run with a
// typed ShardError once the shard's attempt budget is spent.
func (r *runner) retry(i, s, attempt int, cause error) bool {
	name := r.names[i]
	r.mu.Lock()
	r.inflightAt[s] = time.Time{}
	r.inflightDev[s] = -1
	if r.attempts[s] >= r.opts.MaxAttempts {
		if r.failure == nil {
			r.failure = &ShardError{Shard: s, Device: r.opts.Devices[i].Name, Attempts: r.attempts[s], Err: cause}
			close(r.failed)
		}
		r.mu.Unlock()
		return false
	}
	r.retriesOn[i]++
	r.mu.Unlock()
	r.opts.Metrics.bump(name, func(c *DeviceCounts) { c.Retries++ })

	t := r.opts.clock.NewTimer(fault.Backoff(r.opts.BaseDelay, r.opts.MaxDelay, attempt+1))
	defer t.Stop()
	select {
	case <-t.C():
	case <-r.stop:
		return false
	}
	// Redistribution-by-default: offer the retried shard to the least
	// loaded other device; the failing device takes it back only when it
	// is the sole survivor.
	r.mu.Lock()
	if t := r.targetLocked(i); t >= 0 {
		r.pushLocked(t, s)
	}
	r.mu.Unlock()
	return true
}

// stragglerWatch handles devices that are slow in wall-clock terms: a
// shard stuck in flight longer than StragglerAfter is duplicated onto
// another device (first completion wins; the checkpoint map makes the
// duplicate harmless), and the straggling device's queued-but-unstarted
// backlog is migrated away so one wedged device cannot starve the run.
func (r *runner) stragglerWatch() {
	period := r.opts.StragglerAfter / 4
	if period <= 0 {
		period = time.Millisecond
	}
	for {
		tick := r.opts.clock.NewTimer(period)
		select {
		case <-r.stop:
			tick.Stop()
			return
		case <-tick.C():
			now := r.opts.clock.Now()
			r.mu.Lock()
			for s := range r.shards {
				if r.outputs[s] != nil || r.inflightAt[s].IsZero() {
					continue
				}
				if now.Sub(r.inflightAt[s]) < r.opts.StragglerAfter {
					continue
				}
				if r.dups[s] >= len(r.opts.Devices)-1 {
					continue // every other device already has a copy queued
				}
				dev := r.inflightDev[s]
				t := r.targetLocked(dev)
				if t < 0 || t == dev {
					continue // nowhere else to run it
				}
				r.dups[s]++
				r.stragglerCnt++
				if dev >= 0 {
					r.opts.Metrics.bump(r.names[dev], func(c *DeviceCounts) { c.Stragglers++ })
					// Migrate the wedged device's unstarted backlog too.
					for _, q := range r.queues[dev] {
						r.pushLocked(r.targetLocked(dev), q)
					}
					r.queues[dev] = nil
				}
				r.pushLocked(t, s)
			}
			r.mu.Unlock()
		}
	}
}

// report assembles the per-device and aggregate view of the run.
func (r *runner) report() *Report {
	r.mu.Lock()
	defer r.mu.Unlock()
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
	rep.Stragglers = r.stragglerCnt
	if len(rep.Lost) > 0 {
		rep.Degraded = true
		rep.DegradedCause = "device lost mid-run: " + rep.Lost[0]
	}
	return rep
}
