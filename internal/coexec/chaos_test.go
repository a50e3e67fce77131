package coexec

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"gpucmp/internal/arch"
	"gpucmp/internal/fault"
)

// chaosSchedule mixes recoverable transfer faults with device losses at
// rates high enough that most seeds inject something interesting, while
// the MaxPerKey cap plus the survivor guard keep every schedule completable.
var chaosSchedule = fault.Schedule{
	TransferRate:   0.15,
	DeviceLostRate: 0.05,
	MaxPerKey:      3,
}

// TestChaosBitIdentityAcrossSeeds is the acceptance gate of the package:
// for every seed in the sweep, co-execution across three heterogeneous
// devices under the injected fault schedule must produce output words
// bit-identical to the single-device oracle and to pattern.Eval on the
// host, fail only with typed errors (it never does here, by the
// completion-guarantee arithmetic), and leak no goroutines.
func TestChaosBitIdentityAcrossSeeds(t *testing.T) {
	before := runtime.NumGoroutine()
	workloads := []Workload{vecAdd(24), sobel(64, 48), mxm(48)}
	refs := make(map[string][]uint32, len(workloads))
	hosts := make(map[string][]uint32, len(workloads))
	for _, w := range workloads {
		ref, _, err := Oracle(w, "cuda", arch.GTX480())
		if err != nil {
			t.Fatal(err)
		}
		refs[w.Name()] = ref
		hosts[w.Name()] = hostEval(t, w)
	}

	const seeds = 24 // acceptance floor is 20
	var injected, degraded int
	for seed := uint64(0); seed < seeds; seed++ {
		for _, w := range workloads {
			in := fault.New(seed, chaosSchedule)
			m := NewMetrics()
			opts := Options{
				Devices:   []*arch.Device{arch.GTX480(), arch.GTX280(), arch.Intel920()},
				BaseDelay: time.Microsecond,
				MaxDelay:  50 * time.Microsecond,
				Injector:  in,
				Metrics:   m,
			}
			out, rep, err := Run(context.Background(), w, opts)
			if err != nil {
				// Any failure must be typed; and with MaxAttempts 16 >
				// MaxPerKey 3 + 3 devices, no schedule should exhaust a shard.
				var se *ShardError
				if !errors.As(err, &se) {
					t.Fatalf("seed %d %s: untyped error: %v", seed, w.Name(), err)
				}
				t.Fatalf("seed %d %s: recovery guarantee broken: %v", seed, w.Name(), err)
			}
			ref, host := refs[w.Name()], hosts[w.Name()]
			if len(out) != len(host) {
				t.Fatalf("seed %d %s: merged %d words, host evaluator %d", seed, w.Name(), len(out), len(host))
			}
			for i := range ref {
				if out[i] != ref[i] {
					t.Fatalf("seed %d %s: word %d differs from oracle (%#x vs %#x)",
						seed, w.Name(), i, out[i], ref[i])
				}
				if out[i] != host[i] {
					t.Fatalf("seed %d %s: word %d differs from pattern.Eval (%#x vs %#x)",
						seed, w.Name(), i, out[i], host[i])
				}
			}
			counts := in.Counts()
			injected += int(counts[fault.KindTransferError.String()] + counts[fault.KindDeviceLost.String()])
			if rep.Degraded {
				degraded++
				if len(rep.Lost) == 0 || rep.DegradedCause == "" {
					t.Fatalf("seed %d %s: degraded without markers: %+v", seed, w.Name(), rep)
				}
			}
			// Sanity: the metrics and report agree on retries.
			var mr uint64
			for _, c := range m.Snapshot() {
				mr += c.Retries
			}
			if int(mr) != rep.Retries {
				t.Fatalf("seed %d %s: metrics retries %d != report retries %d",
					seed, w.Name(), mr, rep.Retries)
			}
		}
	}
	if injected == 0 {
		t.Fatal("chaos sweep injected no faults — rates or salts are wrong")
	}
	if degraded == 0 {
		t.Error("no seed lost a device — DeviceLostRate too low to exercise recovery")
	}
	t.Logf("chaos sweep: %d seeds x %d workloads, %d faults injected, %d degraded runs",
		seeds, len(workloads), injected, degraded)
	checkNoGoroutineLeak(t, before)
}

// TestChaosDeviceLossBounded: with a 100%% device-lost rate the survivor
// guard must keep exactly one device alive and still complete the run.
func TestChaosDeviceLossBounded(t *testing.T) {
	before := runtime.NumGoroutine()
	w := vecAdd(16)
	ref, _, err := Oracle(w, "cuda", arch.GTX480())
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 5; seed++ {
		in := fault.New(seed, fault.Schedule{DeviceLostRate: 1.0})
		out, rep, err := Run(context.Background(), w, Options{
			Devices:   []*arch.Device{arch.GTX480(), arch.GTX280(), arch.Intel920()},
			BaseDelay: time.Microsecond,
			MaxDelay:  50 * time.Microsecond,
			Injector:  in,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := range ref {
			if out[i] != ref[i] {
				t.Fatalf("seed %d: word %d differs", seed, i)
			}
		}
		if len(rep.Lost) > 2 {
			t.Fatalf("seed %d: lost %d of 3 devices; survivor guard failed", seed, len(rep.Lost))
		}
	}
	checkNoGoroutineLeak(t, before)
}

// TestChaosDistinctSeedsDistinctSchedules guards against the injector
// collapsing all seeds onto one schedule (which would make the sweep above
// meaningless).
func TestChaosDistinctSeedsDistinctSchedules(t *testing.T) {
	outcomes := map[string]bool{}
	for seed := uint64(0); seed < 8; seed++ {
		in := fault.New(seed, chaosSchedule)
		var sig string
		for attempt := 0; attempt < 6; attempt++ {
			f := in.ShardLaunch("0:dev", "w/0")
			switch {
			case f == nil:
				sig += "."
			case f.Kind == fault.KindTransferError:
				sig += "t"
			default:
				sig += "l"
			}
		}
		outcomes[sig] = true
	}
	if len(outcomes) < 2 {
		t.Fatalf("8 seeds produced %d distinct schedules: %v", len(outcomes), outcomes)
	}
}

func BenchmarkCoexecVecAdd(b *testing.B) {
	w := vecAdd(64)
	opts := Options{Devices: []*arch.Device{arch.GTX480(), arch.GTX280(), arch.Intel920()}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(context.Background(), w, opts); err != nil {
			b.Fatal(err)
		}
	}
}
