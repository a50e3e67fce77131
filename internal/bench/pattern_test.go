package bench

import (
	"fmt"
	"reflect"
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/compiler"
	"gpucmp/internal/pattern"
)

// gpuDevices are the paper's three GPUs — the devices the pattern parity
// acceptance gate covers.
func gpuDevices() []*arch.Device {
	return []*arch.Device{arch.GTX480(), arch.GTX280(), arch.HD5870()}
}

// toolchainsFor lists the runtimes a device supports (CUDA is NVIDIA-only).
func toolchainsFor(a *arch.Device) []string {
	if a.Vendor == "NVIDIA" {
		return []string{"opencl", "cuda"}
	}
	return []string{"opencl"}
}

// TestPatternParityBitIdentical is the in-tree parity gate for the two
// benchmarks that keep a hand-written kernel: on every GPU device, St2D's
// and Sobel's canonical lowering must reproduce the hand-written kernel's
// output bit for bit through the full compiler+simulator stack.
func TestPatternParityBitIdentical(t *testing.T) {
	for _, name := range []string{"Sobel", "St2D"} {
		for _, a := range gpuDevices() {
			for _, tc := range toolchainsFor(a) {
				name, a, tc := name, a, tc
				t.Run(name+"/"+a.Name+"/"+tc, func(t *testing.T) {
					t.Parallel()
					for _, scale := range []int{64, 32} {
						t.Run(fmt.Sprintf("scale%d", scale), func(t *testing.T) {
							hand, pat, err := PatternParity(tc, a, name, Config{Scale: scale})
							if err != nil {
								t.Fatal(err)
							}
							if len(hand) != len(pat) {
								t.Fatalf("output sizes differ: hand %d, pattern %d", len(hand), len(pat))
							}
							for i := range hand {
								if hand[i] != pat[i] {
									t.Fatalf("word %d: hand %#x, pattern %#x", i, hand[i], pat[i])
								}
							}
						})
					}
				})
			}
		}
	}
}

// TestNativeSourceIsCanonicalLowering pins "one kernel source" for MxM,
// Reduce and Scan: on every device and toolchain, an empty Config.Pattern
// and the canonical schedule's mangle run the same kernels — equal metric,
// kernel time, warp instructions and kernel reports, names included.
func TestNativeSourceIsCanonicalLowering(t *testing.T) {
	warpInstrs := func(res *Result) int64 {
		var n int64
		for _, tr := range res.Traces {
			n += tr.Dyn.Total
		}
		return n
	}
	for _, name := range []string{"MxM", "Reduce", "Scan"} {
		canon, ok := PatternCanonical(name)
		if !ok {
			t.Fatalf("%s: no canonical schedule", name)
		}
		spec, err := SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range arch.All() {
			for _, tc := range toolchainsFor(a) {
				a, tc := a, tc
				t.Run(name+"/"+a.Name+"/"+tc, func(t *testing.T) {
					t.Parallel()
					run := func(cfg Config) *Result {
						t.Helper()
						d, err := NewDriver(tc, a)
						if err != nil {
							t.Fatal(err)
						}
						res, err := spec.Run(d, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if res.Err != nil {
							t.Fatalf("pattern %q aborted: %v", cfg.Pattern, res.Err)
						}
						return res
					}
					native := run(Config{Scale: 16})
					lowered := run(Config{Scale: 16, Pattern: canon})
					if native.Value != lowered.Value || native.KernelSeconds != lowered.KernelSeconds {
						t.Errorf("native value %v / %v s, canonical %v / %v s",
							native.Value, native.KernelSeconds, lowered.Value, lowered.KernelSeconds)
					}
					if n, l := warpInstrs(native), warpInstrs(lowered); n != l {
						t.Errorf("warp instructions: native %d, canonical %d", n, l)
					}
					if !reflect.DeepEqual(native.Kernels, lowered.Kernels) {
						var nn, ln []string
						for _, k := range native.Kernels {
							nn = append(nn, k.Name)
						}
						for _, k := range lowered.Kernels {
							ln = append(ln, k.Name)
						}
						t.Errorf("kernel reports differ: native %v, canonical %v", nn, ln)
					}
				})
			}
		}
	}
}

// TestPatternBenchRunsThroughDriver checks the Config.Pattern seam end to
// end: each pattern benchmark runs through the ordinary Run* entry point
// and passes its own correctness check, at the canonical schedule and at
// one non-canonical schedule from the rule space.
func TestPatternBenchRunsThroughDriver(t *testing.T) {
	for _, name := range PatternBenchNames() {
		space := PatternSpace(name)
		if len(space) < 2 {
			t.Fatalf("%s: rule space has %d schedules", name, len(space))
		}
		for _, mangle := range []string{space[0], space[len(space)-1]} {
			name, mangle := name, mangle
			t.Run(name+"/"+mangle, func(t *testing.T) {
				t.Parallel()
				d, err := NewDriver("opencl", arch.GTX480())
				if err != nil {
					t.Fatal(err)
				}
				spec, err := SpecByName(name)
				if err != nil {
					t.Fatal(err)
				}
				res, err := spec.Run(d, Config{Scale: 64, Pattern: mangle})
				if err != nil {
					t.Fatal(err)
				}
				if res.Err != nil {
					t.Fatalf("pattern run aborted: %v", res.Err)
				}
				if !res.Correct {
					t.Fatal("pattern run produced wrong output")
				}
			})
		}
	}
}

// TestPatternBenchRejectsBadSchedules: a malformed or inapplicable mangle
// must surface as an ABT result, not a panic or a silent hand-path run.
func TestPatternBenchRejectsBadSchedules(t *testing.T) {
	d, err := NewDriver("opencl", arch.GTX480())
	if err != nil {
		t.Fatal(err)
	}
	res, err := mustSpec("Reduce").Run(d, Config{Scale: 64, Pattern: "not-a-mangle"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil {
		t.Fatal("bad mangle should abort the run")
	}
	// Reduce rejects coarsening; a structurally valid but inapplicable
	// schedule must abort too.
	res, err = mustSpec("Reduce").Run(d, Config{Scale: 64, Pattern: "b256.c2.u0.f1.r1.t0.k0"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil {
		t.Fatal("inapplicable schedule should abort the run")
	}
}

// TestPatternSchedulesDoNotAliasInCompileCache pins the cache-key story:
// the schedule mangle is part of every generated kernel's name (and
// therefore its formatted source, the compile-cache key), so re-running a
// schedule hits the cache while a different schedule misses.
func TestPatternSchedulesDoNotAliasInCompileCache(t *testing.T) {
	compiler.ResetCompileCache()
	defer compiler.ResetCompileCache()

	run := func(mangle string) {
		t.Helper()
		d, err := NewDriver("opencl", arch.GTX480())
		if err != nil {
			t.Fatal(err)
		}
		res, err := mustSpec("Reduce").Run(d, Config{Scale: 256, Pattern: mangle})
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			t.Fatalf("%s: %v", mangle, res.Err)
		}
	}

	space := PatternSpace("Reduce")
	a, b := space[0], space[len(space)-1]

	run(a)
	_, missesAfterA := compiler.CompileCacheStats()
	run(a)
	hits, misses := compiler.CompileCacheStats()
	if misses != missesAfterA {
		t.Fatalf("re-running schedule %s missed the compile cache (misses %d -> %d)", a, missesAfterA, misses)
	}
	if hits == 0 {
		t.Fatalf("re-running schedule %s produced no cache hits", a)
	}
	run(b)
	_, missesAfterB := compiler.CompileCacheStats()
	if missesAfterB == missesAfterA {
		t.Fatalf("schedules %s and %s aliased in the compile cache", a, b)
	}
}

// TestPatternProgramsValidate: the seam's five programs are structurally
// valid and their schedule spaces all contain the canonical schedule.
func TestPatternProgramsValidate(t *testing.T) {
	for _, name := range PatternBenchNames() {
		p, ok := PatternProgram(name)
		if !ok {
			t.Fatalf("%s: no program", name)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		canon, ok := PatternCanonical(name)
		if !ok {
			t.Fatalf("%s: no canonical schedule", name)
		}
		space := PatternSpace(name)
		if len(space) == 0 || space[0] != canon {
			t.Fatalf("%s: space %v does not start with canonical %s", name, space, canon)
		}
		if !IsPatternBench(name) {
			t.Fatalf("%s: IsPatternBench false", name)
		}
		if _, err := pattern.ParseSchedule(canon); err != nil {
			t.Fatalf("%s: canonical mangle unparseable: %v", name, err)
		}
	}
	if IsPatternBench("FFT") {
		t.Fatal("FFT is not pattern-portable")
	}
}
