package coexec

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/clock"
	"gpucmp/internal/fault"
	"gpucmp/internal/pattern"
	"gpucmp/internal/sim"
)

// checkNoGoroutineLeak asserts the goroutine count settles back to (about)
// its pre-test level — the same helper shape the fault chaos suite uses.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var now int
	for time.Now().Before(deadline) {
		now = runtime.NumGoroutine()
		if now <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after settling", before, now)
}

// fastOpts keeps retries snappy for tests.
func fastOpts(devs ...*arch.Device) Options {
	return Options{
		Devices:   devs,
		BaseDelay: time.Microsecond,
		MaxDelay:  50 * time.Microsecond,
	}
}

func testWorkloads() []Workload {
	return []Workload{vecAdd(24), sobel(64, 48), mxm(48)}
}

// hostEval is the workload's whole output computed by pattern.Eval on the
// host, the oracle no device takes part in.
func hostEval(t testing.TB, w Workload) []uint32 {
	t.Helper()
	p := w.(*program)
	out, err := pattern.Eval(p.prog, p.sched, p.shape(p.units), pattern.EvalInputs{Bufs: p.inputs})
	if err != nil {
		t.Fatalf("%s: host eval: %v", w.Name(), err)
	}
	return out
}

// TestSchedulesFitEveryDevice: each workload's schedule is one of its
// program's rewrite space, and its kernels use no shared memory, which the
// Cell/BE's local store has no room for.
func TestSchedulesFitEveryDevice(t *testing.T) {
	for _, w := range testWorkloads() {
		p := w.(*program)
		inSpace := false
		for _, s := range pattern.Space(p.prog) {
			inSpace = inSpace || s == p.sched
		}
		if !inSpace {
			t.Errorf("%s: schedule %s is not in its program's space", w.Name(), p.sched.Mangle())
		}
		l, err := pattern.Lower(p.prog, p.sched, p.shape(p.units))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range l.Kernels {
			if len(k.SharedArrays) > 0 {
				t.Errorf("%s: kernel %s declares shared memory", w.Name(), k.Name)
			}
		}
	}
}

// TestNamedSizesMatchHost: Named takes any size >= 1, including ones no
// block size divides and images with no interior, and a two-device split
// of each matches the host evaluator.
func TestNamedSizesMatchHost(t *testing.T) {
	for _, name := range NamedWorkloads() {
		for _, size := range []int{1, 2, 7, 20} {
			w, err := Named(name, size)
			if err != nil {
				t.Fatalf("%s %d: %v", name, size, err)
			}
			out, _, err := Run(context.Background(), w, fastOpts(arch.GTX480(), arch.Intel920()))
			if err != nil {
				t.Fatalf("%s %d: %v", name, size, err)
			}
			host := hostEval(t, w)
			if len(out) != len(host) {
				t.Fatalf("%s %d: merged %d words, host evaluator %d", name, size, len(out), len(host))
			}
			for i := range host {
				if out[i] != host[i] {
					t.Fatalf("%s %d: word %d: %#x, host evaluator %#x", name, size, i, out[i], host[i])
				}
			}
		}
	}
}

// TestOracleBitIdenticalAcrossDevices is the foundation the whole package
// rests on: the same workload produces the same bits on every modelled
// device under both toolchains, so shards can move freely.
func TestOracleBitIdenticalAcrossDevices(t *testing.T) {
	for _, w := range testWorkloads() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			ref, _, err := Oracle(w, "cuda", arch.GTX480())
			if err != nil {
				t.Fatalf("oracle on GTX480: %v", err)
			}
			if want := w.Units() * w.WordsPerUnit(); len(ref) != want {
				t.Fatalf("oracle output %d words, want %d", len(ref), want)
			}
			for _, a := range []*arch.Device{arch.GTX280(), arch.HD5870(), arch.Intel920(), arch.CellBE()} {
				got, _, err := Oracle(w, bench.Toolchains(a)[0].Name, a)
				if err != nil {
					t.Fatalf("oracle on %s: %v", a.Name, err)
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("%s: word %d differs: %#x vs %#x", a.Name, i, got[i], ref[i])
					}
				}
			}
		})
	}
}

// TestOracleDigestsPinned pins the single-device output of every size the
// tests and the coexec figure row use, by SHA-256 of the little-endian words.
func TestOracleDigestsPinned(t *testing.T) {
	for _, c := range []struct {
		w    Workload
		want string
	}{
		{vecAdd(4), "279d4e1766efbd3bf03ce2ccea55f297e53f0bc627bdcaa37143d5519208e6c9"},
		{vecAdd(8), "5ba1d40f17ed4e6c44ec613ef0524e158c228ac90b2f3914072aca4c3d340ede"},
		{vecAdd(16), "3994020d1abab903581158e28042201ade301a1f015f00609d6c8dd37104e122"},
		{vecAdd(24), "19ed3eb3f8c541c7421db5649d353f73f12dda8adbf6b8f94adefd208c58e1bc"},
		{vecAdd(64), "21e9bfc110bc25c20906b9e05edf05220333cc302eb256441ee6bbde219d53b5"},
		{vecAdd(128), "964b5b05d9250a24afda812c72a8556468b63e81d48f75291de1f79fa0bb526d"},
		{vecAdd(512), "06defa18ce003fbc57d3f6739cebc1e57eaf0062b3d1dc8b7704eb8feb0f9ec2"},
		{sobel(64, 48), "02948bb5df0c91233725b37ed0ef637a7a3f82e5f484726f0da4fd7b6a706b21"},
		{sobel(64, 64), "4337cbe91b35d4dde26109bc8d719580f32af4bf63d9d2f9dd04c32d49561b9d"},
		{sobel(256, 256), "fb0f37974083796035dfb6885d70e052ad73587c1edcd5a7aaee0fc47c45d805"},
		{mxm(48), "7f7cfa89f2b52cc871780b1bac8a9752637fb52c57ed392c469b3b442ab4a67f"},
		{mxm(96), "f888c673093f33a2b116267f868813bc44aedb26f8e0f471db0f4d2d2be275ad"},
		{mxm(192), "e95963967d22cc33a1ebe9203d856bad5ca5405e6a6d4d44b0bb64d96d82f716"},
	} {
		c := c
		name := fmt.Sprintf("%s/%dx%d", c.w.Name(), c.w.Units(), c.w.WordsPerUnit())
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			out, _, err := Oracle(c.w, "cuda", arch.GTX480())
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var buf [4]byte
			for _, word := range out {
				binary.LittleEndian.PutUint32(buf[:], word)
				h.Write(buf[:])
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("output digest %s, want %s", got, c.want)
			}
		})
	}
}

// TestCoexecMatchesOracle: fault-free 2- and 3-device splits merge to the
// oracle bits, and the report's accounting holds together.
func TestCoexecMatchesOracle(t *testing.T) {
	splits := [][]*arch.Device{
		{arch.GTX480(), arch.GTX280()},
		{arch.GTX480(), arch.GTX280(), arch.Intel920()},
	}
	for _, w := range testWorkloads() {
		ref, _, err := Oracle(w, "cuda", arch.GTX480())
		if err != nil {
			t.Fatal(err)
		}
		for _, devs := range splits {
			out, rep, err := Run(context.Background(), w, fastOpts(devs...))
			if err != nil {
				t.Fatalf("%s on %d devices: %v", w.Name(), len(devs), err)
			}
			if len(out) != len(ref) {
				t.Fatalf("%s: merged %d words, want %d", w.Name(), len(out), len(ref))
			}
			for i := range ref {
				if out[i] != ref[i] {
					t.Fatalf("%s on %d devices: word %d differs", w.Name(), len(devs), i)
				}
			}
			var shards int
			for _, d := range rep.Devices {
				shards += d.Shards
				if d.SpanSeconds > d.BusySeconds+1e-15 {
					t.Errorf("%s/%s: overlapped span %g exceeds serial busy %g",
						w.Name(), d.Device, d.SpanSeconds, d.BusySeconds)
				}
			}
			if shards < rep.Shards {
				t.Errorf("%s: device shard counts %d < %d shards", w.Name(), shards, rep.Shards)
			}
			if rep.Degraded || len(rep.Lost) > 0 {
				t.Errorf("%s: fault-free run reports degradation: %+v", w.Name(), rep)
			}
			if rep.MakespanSeconds <= 0 || rep.MakespanSeconds > rep.NoOverlapSeconds+1e-15 {
				t.Errorf("%s: makespan %g vs no-overlap %g implausible",
					w.Name(), rep.MakespanSeconds, rep.NoOverlapSeconds)
			}
		}
	}
}

// TestDeterministicKillRedistributes: a device killed mid-split loses its
// remaining shards to the survivors, the merge stays bit-identical, and
// the run is marked degraded with the dead device named.
func TestDeterministicKillRedistributes(t *testing.T) {
	before := runtime.NumGoroutine()
	// A workload whose shards cost real simulation time, so both workers
	// provably engage before the queue drains (tiny shards let one fast
	// worker swallow the whole queue before the other is scheduled).
	w := mxm(96)
	ref, _, err := Oracle(w, "cuda", arch.GTX480())
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	opts := fastOpts(arch.GTX480(), arch.GTX280())
	opts.ShardsPerDevice = 8
	opts.Metrics = m
	opts.Kill = map[string]int{"GeForce GTX280": 1} // dies after one shard
	out, rep, err := Run(context.Background(), w, opts)
	if err != nil {
		t.Fatalf("run with kill: %v", err)
	}
	for i := range ref {
		if out[i] != ref[i] {
			t.Fatalf("word %d differs after mid-run kill", i)
		}
	}
	if !rep.Degraded || len(rep.Lost) != 1 || rep.Lost[0] != "GeForce GTX280" {
		t.Fatalf("degraded markers wrong: %+v", rep)
	}
	var killed *DeviceReport
	for i := range rep.Devices {
		if rep.Devices[i].Device == "GeForce GTX280" {
			killed = &rep.Devices[i]
		}
	}
	if killed == nil || !killed.Lost {
		t.Fatalf("killed device not marked lost: %+v", rep.Devices)
	}
	if rep.Redistributions == 0 {
		t.Errorf("dead device's shards were not redistributed: %+v", rep)
	}
	snap := m.Snapshot()
	if snap["1:GeForce GTX280"].Lost != 1 {
		t.Errorf("metrics missed the device loss: %+v", snap)
	}
	if snap["0:GeForce GTX480"].Shards == 0 {
		t.Errorf("survivor did no work: %+v", snap)
	}
	checkNoGoroutineLeak(t, before)
}

// TestPermanentShardFailureIsTyped: with an uncapped 100% transfer-fault
// rate and a tiny attempt budget, the run must fail with a *ShardError
// wrapping fault.ErrTransfer — never an untyped error.
func TestPermanentShardFailureIsTyped(t *testing.T) {
	before := runtime.NumGoroutine()
	w := vecAdd(8)
	opts := fastOpts(arch.GTX480(), arch.GTX280())
	opts.MaxAttempts = 3
	opts.Injector = fault.New(1, fault.Schedule{TransferRate: 1.0}) // MaxPerKey 0 = unlimited
	_, _, err := Run(context.Background(), w, opts)
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("want *ShardError, got %T: %v", err, err)
	}
	if !errors.Is(err, fault.ErrTransfer) {
		t.Fatalf("ShardError does not wrap fault.ErrTransfer: %v", err)
	}
	checkNoGoroutineLeak(t, before)
}

// TestMaxPerKeyExemptionUnstarvesRecovery: the same schedule capped at
// MaxPerKey=3 must always recover, because the cap is spent per shard
// globally — redistribution to a fresh device cannot re-arm it.
func TestMaxPerKeyExemptionUnstarvesRecovery(t *testing.T) {
	w := vecAdd(16)
	ref, _, err := Oracle(w, "cuda", arch.GTX480())
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 5; seed++ {
		opts := fastOpts(arch.GTX480(), arch.GTX280(), arch.Intel920())
		opts.MaxAttempts = 8 // > MaxPerKey + device count
		opts.Injector = fault.New(seed, fault.Schedule{TransferRate: 1.0, MaxPerKey: 3})
		out, rep, err := Run(context.Background(), w, opts)
		if err != nil {
			t.Fatalf("seed %d: recovery starved: %v", seed, err)
		}
		for i := range ref {
			if out[i] != ref[i] {
				t.Fatalf("seed %d: word %d differs", seed, i)
			}
		}
		if rep.Retries == 0 {
			t.Fatalf("seed %d: 100%% fault rate injected no retries", seed)
		}
	}
}

// stubWorkload exercises the straggler path without simulator cost: unit
// u's output word is u+1. The slow device holds the first shard it starts
// until another device starts a duplicate of it.
type stubWorkload struct {
	units   int
	slow    string        // device name
	entered chan struct{} // closed once the slow device holds a shard
	release chan struct{} // closed once another device starts the held shard

	enter, rel sync.Once
	heldLo     int // first unit of the held shard; set before entered closes
}

func (s *stubWorkload) Name() string      { return "stub" }
func (s *stubWorkload) Units() int        { return s.units }
func (s *stubWorkload) WordsPerUnit() int { return 1 }
func (s *stubWorkload) NewInstance(tc string, a *arch.Device) (Instance, error) {
	return &stubInstance{w: s, dev: a.Name}, nil
}

type stubInstance struct {
	w   *stubWorkload
	dev string
}

func (in *stubInstance) SimDevice() *sim.Device { return nil }
func (in *stubInstance) SetupSeconds() float64  { return 0 }
func (in *stubInstance) RunUnits(lo, hi int) ([]uint32, Times, error) {
	w := in.w
	if in.dev == w.slow {
		w.enter.Do(func() {
			w.heldLo = lo
			close(w.entered)
		})
		<-w.release
	} else if lo == w.heldLo {
		w.rel.Do(func() { close(w.release) })
	}
	out := make([]uint32, hi-lo)
	for i := range out {
		out[i] = uint32(lo + i + 1)
	}
	return out, Times{H2D: 1e-6, Kernel: 2e-6, D2H: 1e-6}, nil
}

// TestStragglerReassignment: the whole workload is dealt to a device that
// holds its first shard. Once the clock passes StragglerAfter, the watch
// must duplicate that in-flight shard to the other device (first
// completion wins) and migrate the rest of the backlog with it, and the
// merged output stays correct.
func TestStragglerReassignment(t *testing.T) {
	before := runtime.NumGoroutine()
	w := &stubWorkload{units: 12, slow: "GeForce GTX280", entered: make(chan struct{}), release: make(chan struct{})}
	opts := fastOpts(arch.GTX480(), arch.GTX280())
	opts.Weights = []float64{1e-9, 1} // all six shards start on the GTX280
	opts.StragglerAfter = 20 * time.Millisecond
	opts.ShardsPerDevice = 3
	clk := clock.NewFake(time.Now())
	opts.clock = clk
	m := NewMetrics()
	opts.Metrics = m
	type result struct {
		out []uint32
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, rep, err := Run(context.Background(), w, opts)
		done <- result{out, rep, err}
	}()
	<-w.entered
	clk.WaitArmed(1) // the straggler watch
	clk.Advance(opts.StragglerAfter)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	for i := range r.out {
		if r.out[i] != uint32(i+1) {
			t.Fatalf("word %d = %d, want %d", i, r.out[i], i+1)
		}
	}
	if r.rep.Stragglers != 1 {
		t.Errorf("%d straggler duplicates dispatched, want 1", r.rep.Stragglers)
	}
	// The duplicate and the migrated backlog all ran on the GTX480; the
	// GTX280 finished only the shard it held.
	for _, d := range r.rep.Devices {
		want := map[string]int{"GeForce GTX480": 6, "GeForce GTX280": 1}[d.Device]
		if d.Shards != want {
			t.Errorf("%s completed %d shards, want %d", d.Device, d.Shards, want)
		}
	}
	if snap := m.Snapshot(); snap["1:GeForce GTX280"].Stragglers != 1 {
		t.Errorf("straggler not attributed to the slow device: %+v", snap)
	}
	checkNoGoroutineLeak(t, before)
}

// startSignal wraps a workload so that started closes when the first shard
// starts on any device.
type startSignal struct {
	Workload
	once    sync.Once
	started chan struct{}
}

func (s *startSignal) NewInstance(tc string, a *arch.Device) (Instance, error) {
	in, err := s.Workload.NewInstance(tc, a)
	if err != nil {
		return nil, err
	}
	return signalInstance{in, s}, nil
}

type signalInstance struct {
	Instance
	s *startSignal
}

func (in signalInstance) RunUnits(lo, hi int) ([]uint32, Times, error) {
	in.s.once.Do(func() { close(in.s.started) })
	return in.Instance.RunUnits(lo, hi)
}

// TestCancellationKillsInFlightShards: cancelling the context mid-run must
// cancel every device's in-flight simulated kernel, return a wrapped
// context error, and leak nothing.
func TestCancellationKillsInFlightShards(t *testing.T) {
	before := runtime.NumGoroutine()
	w := &startSignal{Workload: mxm(192), started: make(chan struct{})} // big enough that shards are still in flight when we cancel
	ctx, cancel := context.WithCancel(context.Background())
	opts := fastOpts(arch.GTX480(), arch.GTX280(), arch.Intel920())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := Run(ctx, w, opts)
		errCh <- err
	}()
	<-w.started
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	checkNoGoroutineLeak(t, before)
}

// TestRunValidation covers the trivial error paths.
func TestRunValidation(t *testing.T) {
	if _, _, err := Run(context.Background(), vecAdd(4), Options{}); !errors.Is(err, ErrNoDevices) {
		t.Fatalf("want ErrNoDevices, got %v", err)
	}
	// A CUDA toolchain forced onto an AMD device must surface the open error.
	opts := Options{Devices: []*arch.Device{arch.HD5870()}, Toolchains: []string{"cuda"}}
	if _, _, err := Run(context.Background(), vecAdd(4), opts); err == nil {
		t.Fatal("CUDA on HD5870 must fail to open")
	}
}

// TestToolchainFor pins the SNIPPETS §3 split: with no Toolchains given,
// each device runs its native toolchain.
func TestToolchainFor(t *testing.T) {
	opts := Options{Devices: []*arch.Device{arch.GTX480(), arch.Intel920()}}
	_, rep, err := Run(context.Background(), vecAdd(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := []string{rep.Devices[0].Toolchain, rep.Devices[1].Toolchain}; got[0] != "cuda" || got[1] != "opencl" {
		t.Fatalf("toolchain auto-selection = %v, want [cuda opencl]", got)
	}
}

func ExampleRun() {
	w, err := Named("vecadd", 16)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	out, rep, err := Run(context.Background(), w,
		Options{Devices: []*arch.Device{arch.GTX480(), arch.Intel920()}})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(len(out) == 16*256, rep.Shards > 1, rep.Degraded)
	// Output: true true false
}
