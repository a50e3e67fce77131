// Package fault is a deterministic, seeded fault injector modelling the
// failure modes of the paper-era (2010) GPU driver stacks the measurements
// were taken on: transient kernel-launch failures, CL_OUT_OF_RESOURCES
// aborts, runaway kernels killed by the display watchdog, and corrupted
// cached results. The injector plugs into the scheduler at the device seam
// (sched.Options.Injector), so every layer above — retry, the watchdog,
// the typed 503 — can be exercised under chaos.
//
// Faults are deterministic per (seed, job key, attempt number): two runs
// with the same seed and the same job stream inject exactly the same
// faults, which makes chaos failures reproducible and bisectable the same
// way fuzzer failures are.
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"
)

// Kind enumerates the modelled failure modes.
type Kind int

const (
	// KindTransientLaunch is a launch that fails once and succeeds on
	// retry — the spurious CL_INVALID_COMMAND_QUEUE / launch-timeout
	// class of 2010-era driver bugs.
	KindTransientLaunch Kind = iota
	// KindOutOfResources is a launch rejected with an out-of-resources
	// error (the Table VI "ABT" mechanism happening spuriously).
	KindOutOfResources
	// KindHang is a kernel that never completes: the attempt blocks until
	// the scheduler's watchdog cancels it.
	KindHang
	// KindCorruptCache flips the checksum of a stored cache entry, so the
	// next read detects the corruption and must re-execute.
	KindCorruptCache
	// KindSlowLaunch is a launch that completes correctly but only after
	// an injected delay — the straggler-shard failure mode request
	// hedging exists for. The scheduler sleeps Fault.Delay (interruptibly)
	// before running the attempt for real.
	KindSlowLaunch
	// KindTransferError is a host<->device copy that fails for one shard
	// attempt — the co-execution analogue of KindTransientLaunch. The
	// shard is retried (possibly on another device).
	KindTransferError
	// KindDeviceLost is a whole device disappearing mid-run (driver reset,
	// Xid, hot unplug). Every unfinished shard on the device must be
	// redistributed to the survivors.
	KindDeviceLost

	numKinds
)

// String returns the metric-friendly name of the kind.
func (k Kind) String() string {
	switch k {
	case KindTransientLaunch:
		return "transient_launch"
	case KindOutOfResources:
		return "out_of_resources"
	case KindHang:
		return "hang"
	case KindCorruptCache:
		return "corrupt_cache"
	case KindSlowLaunch:
		return "slow_launch"
	case KindTransferError:
		return "transfer_error"
	case KindDeviceLost:
		return "device_lost"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Typed errors for the injected failures. The scheduler's taxonomy
// classifies ErrTransientLaunch as retryable and ErrOutOfResources as
// permanent; both are errors.Is-able.
var (
	ErrTransientLaunch = errors.New("fault: injected transient launch failure")
	ErrOutOfResources  = errors.New("fault: injected out of resources")
	// ErrTransfer is the typed error for an injected host<->device copy
	// failure; the co-execution scheduler classifies it retryable.
	ErrTransfer = errors.New("fault: injected transfer error")
	// ErrDeviceLost is the typed error for an injected device loss; the
	// co-execution scheduler redistributes rather than retries in place.
	ErrDeviceLost = errors.New("fault: injected device lost")
)

// Schedule sets the per-attempt injection probabilities. The rates are
// evaluated as a ladder (transient, then OOR, then hang) against one
// uniform draw, so their sum must be ≤ 1.
type Schedule struct {
	// TransientRate is the probability a launch attempt fails with
	// ErrTransientLaunch.
	TransientRate float64
	// OORRate is the probability a launch attempt fails with
	// ErrOutOfResources.
	OORRate float64
	// HangRate is the probability a launch attempt hangs until the
	// watchdog cancels it.
	HangRate float64
	// CorruptRate is the probability a cache store is corrupted.
	CorruptRate float64
	// SlowRate is the probability a launch attempt is delayed by
	// SlowDelay before executing normally — a straggler, not a failure.
	// It rides the same probability ladder as the launch faults.
	SlowRate float64
	// SlowDelay is how long a slow launch stalls (default 100ms when
	// SlowRate > 0 and SlowDelay is zero).
	SlowDelay time.Duration
	// MaxPerKey caps how many launch faults are injected for one job key
	// (0 = unlimited). Setting it below the scheduler's retry budget
	// guarantees every job eventually succeeds, which is what the
	// bit-identical chaos comparison needs.
	MaxPerKey int

	// TransferRate is the probability one co-execution shard attempt fails
	// its host<->device copy with ErrTransfer. Shard faults ride their own
	// probability ladder (ShardLaunch), separate from the launch ladder.
	TransferRate float64
	// DeviceLostRate is the probability one shard attempt takes its whole
	// device down with ErrDeviceLost.
	DeviceLostRate float64
}

// Validate reports whether the rates form a probability ladder.
func (s Schedule) Validate() error {
	for _, r := range []float64{s.TransientRate, s.OORRate, s.HangRate, s.CorruptRate, s.SlowRate, s.TransferRate, s.DeviceLostRate} {
		if r < 0 || r > 1 {
			return fmt.Errorf("fault: rate %v out of [0,1]", r)
		}
	}
	if sum := s.TransientRate + s.OORRate + s.HangRate + s.SlowRate; sum > 1 {
		return fmt.Errorf("fault: launch-fault rates sum to %v > 1", sum)
	}
	if sum := s.TransferRate + s.DeviceLostRate; sum > 1 {
		return fmt.Errorf("fault: shard-fault rates sum to %v > 1", sum)
	}
	if s.SlowDelay < 0 {
		return fmt.Errorf("fault: negative SlowDelay %v", s.SlowDelay)
	}
	if s.MaxPerKey < 0 {
		return fmt.Errorf("fault: negative MaxPerKey %d", s.MaxPerKey)
	}
	return nil
}

// A Fault is one injected failure decision.
type Fault struct {
	Kind Kind
	// Err is the typed error for TransientLaunch / OutOfResources faults;
	// nil for Hang (the caller owns the blocking-until-cancelled part)
	// and for SlowLaunch (the attempt still runs, after Delay).
	Err error
	// Delay is how long a SlowLaunch fault stalls the attempt.
	Delay time.Duration
}

// Injector decides, deterministically, which attempts fail. A nil
// *Injector is valid and injects nothing, so callers can hold one
// unconditionally.
type Injector struct {
	seed uint64
	sch  Schedule

	mu       sync.Mutex
	launches map[string]uint64 // per-key launch-attempt counter
	stores   map[string]uint64 // per-key cache-store counter
	faults   map[string]int    // per-key injected launch-fault count

	counts [numKinds]atomic.Uint64
}

// New builds an injector for the seed and schedule. It panics on an
// invalid schedule — an injector is test/chaos plumbing, and a bad
// schedule is a programming error.
func New(seed uint64, sch Schedule) *Injector {
	if err := sch.Validate(); err != nil {
		panic(err)
	}
	return &Injector{
		seed:     seed,
		sch:      sch,
		launches: map[string]uint64{},
		stores:   map[string]uint64{},
		faults:   map[string]int{},
	}
}

// Seed returns the injector's seed (for logging chaos runs).
func (in *Injector) Seed() uint64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// Launch is called once per launch attempt for the job key and returns
// the fault to inject, or nil to let the attempt run for real. The
// decision depends only on (seed, key, attempt number), never on timing.
func (in *Injector) Launch(key string) *Fault {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	n := in.launches[key]
	in.launches[key] = n + 1
	capped := in.sch.MaxPerKey > 0 && in.faults[key] >= in.sch.MaxPerKey
	if !capped {
		// Decide while still holding the lock so the per-key fault count
		// stays consistent with the decision.
		u := in.uniform(key, n, saltLaunch)
		var f *Fault
		switch {
		case u < in.sch.TransientRate:
			f = &Fault{Kind: KindTransientLaunch,
				Err: fmt.Errorf("fault: %s attempt %d: %w", key, n, ErrTransientLaunch)}
		case u < in.sch.TransientRate+in.sch.OORRate:
			f = &Fault{Kind: KindOutOfResources,
				Err: fmt.Errorf("fault: %s attempt %d: %w", key, n, ErrOutOfResources)}
		case u < in.sch.TransientRate+in.sch.OORRate+in.sch.HangRate:
			f = &Fault{Kind: KindHang}
		case u < in.sch.TransientRate+in.sch.OORRate+in.sch.HangRate+in.sch.SlowRate:
			delay := in.sch.SlowDelay
			if delay <= 0 {
				delay = 100 * time.Millisecond
			}
			f = &Fault{Kind: KindSlowLaunch, Delay: delay}
		}
		if f != nil {
			if f.Kind != KindSlowLaunch {
				// Slow launches still succeed, so they don't count against
				// MaxPerKey — the cap exists to guarantee retried jobs
				// eventually get a clean attempt.
				in.faults[key]++
			}
			in.mu.Unlock()
			in.counts[f.Kind].Add(1)
			return f
		}
	}
	in.mu.Unlock()
	return nil
}

// ShardLaunch is called once per co-execution shard attempt and returns
// the fault to inject, or nil for a clean attempt. The decision depends
// only on (seed, device, shard, per-device attempt number) — the
// "deterministic per-(seed,device,shard) schedule" contract — so the same
// seed kills the same devices at the same points in every run.
//
// MaxPerKey accounting is keyed by the shard alone, not by (device,
// shard): when a shard is redistributed to a fresh device after a loss,
// the retries there do NOT restart the cap count — the same exemption
// hedged requests get. Without this, a chaos schedule could starve
// recovery into a spurious permanent error by drawing fresh faults on
// every survivor. Device losses never count against the cap either: they
// are device-level events, and charging them to whichever shard happened
// to observe them first would make the cap's guarantee depend on
// scheduling order.
func (in *Injector) ShardLaunch(device, shard string) *Fault {
	if in == nil {
		return nil
	}
	dk := device + "\x00" + shard
	in.mu.Lock()
	n := in.launches[dk]
	in.launches[dk] = n + 1
	capped := in.sch.MaxPerKey > 0 && in.faults[shard] >= in.sch.MaxPerKey
	var f *Fault
	if !capped {
		u := in.uniform(dk, n, saltShard)
		switch {
		case u < in.sch.TransferRate:
			f = &Fault{Kind: KindTransferError,
				Err: fmt.Errorf("fault: %s shard %s attempt %d: %w", device, shard, n, ErrTransfer)}
			in.faults[shard]++
		case u < in.sch.TransferRate+in.sch.DeviceLostRate:
			f = &Fault{Kind: KindDeviceLost,
				Err: fmt.Errorf("fault: %s shard %s attempt %d: %w", device, shard, n, ErrDeviceLost)}
		}
	}
	in.mu.Unlock()
	if f != nil {
		in.counts[f.Kind].Add(1)
	}
	return f
}

// CorruptStore is called once per cache store for the job key and reports
// whether this stored entry should be corrupted.
func (in *Injector) CorruptStore(key string) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	n := in.stores[key]
	in.stores[key] = n + 1
	u := in.uniform(key, n, saltStore)
	in.mu.Unlock()
	if u < in.sch.CorruptRate {
		in.counts[KindCorruptCache].Add(1)
		return true
	}
	return false
}

// Counts returns how many faults of each kind have been injected so far,
// keyed by Kind.String().
func (in *Injector) Counts() map[string]uint64 {
	out := map[string]uint64{}
	if in == nil {
		return out
	}
	for k := Kind(0); k < numKinds; k++ {
		out[k.String()] = in.counts[k].Load()
	}
	return out
}

// Total returns the total number of injected faults.
func (in *Injector) Total() uint64 {
	if in == nil {
		return 0
	}
	var t uint64
	for k := Kind(0); k < numKinds; k++ {
		t += in.counts[k].Load()
	}
	return t
}

// Domain-separation salts so launch and store decisions for the same
// (key, n) are independent.
const (
	saltLaunch = 0x1cebe1a9
	saltStore  = 0x5ca1ab1e
	saltShard  = 0xc0e8ec5d
)

// uniform maps (seed, key, n, salt) to a uniform draw in [0,1) via an
// fnv64a hash mixed through splitmix64 — the same style of stateless
// hashing the workload generators use, so runs are position-independent.
func (in *Injector) uniform(key string, n, salt uint64) float64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := in.seed ^ h.Sum64() ^ (n * 0x9e3779b97f4a7c15) ^ salt
	// splitmix64 finaliser.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}
