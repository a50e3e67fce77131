package coexec

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/fault"
	"gpucmp/internal/golden"
	"gpucmp/internal/pattern"
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
			out, _, err := Run(context.Background(), w, Options{Devices: []*arch.Device{arch.GTX480(), arch.Intel920()}})
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
// tests and the coexec figure row use, by SHA-256 of the little-endian
// words, in testdata/oracle.sha256.
func TestOracleDigestsPinned(t *testing.T) {
	ws := []Workload{vecAdd(4), vecAdd(8), vecAdd(16), vecAdd(24), vecAdd(64), vecAdd(128), vecAdd(512),
		sobel(64, 48), sobel(64, 64), sobel(256, 256), mxm(48), mxm(96), mxm(192)}
	lines := make([]string, len(ws))
	// Checked once every parallel subtest has recorded its line; a subtest
	// that failed or that -run left out leaves its line empty, and then
	// the file is neither compared nor rewritten.
	t.Cleanup(func() {
		if !slices.Contains(lines, "") {
			golden.Check(t, "testdata/oracle.sha256", []byte(strings.Join(lines, "")))
		}
	})
	for i, w := range ws {
		name := fmt.Sprintf("%s/%dx%d", w.Name(), w.Units(), w.WordsPerUnit())
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			out, _, err := Oracle(w, "cuda", arch.GTX480())
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var buf [4]byte
			for _, word := range out {
				binary.LittleEndian.PutUint32(buf[:], word)
				h.Write(buf[:])
			}
			lines[i] = fmt.Sprintf("%s %x\n", name, h.Sum(nil))
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
			out, rep, err := Run(context.Background(), w, Options{Devices: devs})
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
	w := mxm(96)
	ref, _, err := Oracle(w, "cuda", arch.GTX480())
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	opts := Options{Devices: []*arch.Device{arch.GTX480(), arch.GTX280()}}
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

// TestRunReplays: Run's schedule is simulated, so every run of one
// workload, split and fault seed gives the same report, byte for byte, and
// the oracle's output. The cases are the kill split POST /coexec's test
// uses, transfer faults on three devices under three seeds, and a seed
// that loses a device.
func TestRunReplays(t *testing.T) {
	three := []*arch.Device{arch.GTX480(), arch.GTX280(), arch.Intel920()}
	type replayCase struct {
		name   string
		w      Workload
		opts   func() Options
		wantOK func(*Report) bool // the case exercised what it is for
	}
	kill := func() Options {
		o := Options{Devices: []*arch.Device{arch.GTX480(), arch.GTX280()}}
		o.ShardsPerDevice = 8
		o.Kill = map[string]int{"GeForce GTX280": 1}
		return o
	}
	cases := []replayCase{{"kill", mxm(96), kill, func(r *Report) bool { return r.Degraded && r.Redistributions > 0 }}}
	for seed := uint64(0); seed < 3; seed++ {
		cases = append(cases, replayCase{fmt.Sprintf("transfer/seed%d", seed), sobel(64, 48), func() Options {
			o := Options{Devices: three}
			o.Injector = fault.New(seed, fault.Schedule{TransferRate: 0.3, MaxPerKey: 3})
			return o
		}, func(r *Report) bool { return r.Retries > 0 }})
	}
	cases = append(cases, replayCase{"device-lost", vecAdd(24), func() Options {
		o := Options{Devices: three}
		o.Injector = fault.New(1, fault.Schedule{TransferRate: 0.15, DeviceLostRate: 0.1, MaxPerKey: 3})
		return o
	}, func(r *Report) bool { return r.Degraded && r.Retries > 0 }})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref, _, err := Oracle(c.w, "cuda", arch.GTX480())
			if err != nil {
				t.Fatal(err)
			}
			var first []byte
			for run := 0; run < 20; run++ {
				out, rep, err := Run(context.Background(), c.w, c.opts())
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				if !slices.Equal(out, ref) {
					t.Fatalf("run %d: merged output differs from the oracle", run)
				}
				enc, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = enc
					if !c.wantOK(rep) {
						t.Fatalf("the case does not exercise its path: %s", enc)
					}
				} else if !bytes.Equal(enc, first) {
					t.Fatalf("run %d's report differs from run 0's:\n%s\n%s", run, enc, first)
				}
			}
		})
	}
}

// TestPermanentShardFailureIsTyped: with an uncapped 100% transfer-fault
// rate and a tiny attempt budget, the run must fail with a *ShardError
// wrapping fault.ErrTransfer — never an untyped error.
func TestPermanentShardFailureIsTyped(t *testing.T) {
	before := runtime.NumGoroutine()
	w := vecAdd(8)
	opts := Options{Devices: []*arch.Device{arch.GTX480(), arch.GTX280()}}
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
		opts := Options{Devices: []*arch.Device{arch.GTX480(), arch.GTX280(), arch.Intel920()}}
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
	opts := Options{Devices: []*arch.Device{arch.GTX480(), arch.GTX280(), arch.Intel920()}}
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
}

// TestToolchainFor pins the SNIPPETS §3 split: each device runs its
// native toolchain.
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
