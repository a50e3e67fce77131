package submit

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/kir"
)

// storeKernel builds the canonical well-behaved submission kernel:
// out[gid] = gid for every thread.
func storeKernel(t *testing.T) *kir.Kernel {
	t.Helper()
	b := kir.NewKernel("store")
	out := b.GlobalBuffer("out", kir.U32)
	gid := b.Declare("gid", b.GlobalIDX())
	b.Store(out, gid, gid)
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// wire marshals a request body for k with an 8-word out buffer and a
// 2x4 launch, then applies mutations at the JSON-map level so tests can
// express shapes the typed request struct cannot.
func wire(t *testing.T, k *kir.Kernel, mutate func(m map[string]any)) []byte {
	t.Helper()
	body, err := json.Marshal(request{
		Grid: 2, Block: 4, Out: "out",
		Buffers: map[string][]uint32{"out": make([]uint32, 8)},
		Kernel:  kir.EncodeKernelJSON(k),
	})
	if err != nil {
		t.Fatal(err)
	}
	if mutate == nil {
		return body
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	mutate(m)
	body, err = json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestParseValid(t *testing.T) {
	sub, err := Parse(wire(t, storeKernel(t), nil), DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if sub.Grid != 2 || sub.Block != 4 || sub.Out != "out" {
		t.Errorf("shape = %d x %d out %q", sub.Grid, sub.Block, sub.Out)
	}
	if len(sub.Devices) != len(arch.All()) {
		t.Errorf("devices defaulted to %d, want all %d", len(sub.Devices), len(arch.All()))
	}
	if sub.Scalars == nil {
		t.Error("Scalars not defaulted to empty map")
	}
	if err := Gauntlet(sub.Kernel); err != nil {
		t.Errorf("valid kernel failed gauntlet: %v", err)
	}
}

// TestParseHostile drives every reject path in Parse with a hostile
// encoding and asserts the typed code, exercising the API contract that
// no malformed body ever reaches the gauntlet or a worker.
func TestParseHostile(t *testing.T) {
	lim := DefaultLimits()
	cases := []struct {
		name string
		body func(t *testing.T) []byte
		lim  Limits
		code string
	}{
		{
			name: "not json",
			body: func(t *testing.T) []byte { return []byte("]]]not json") },
			code: CodeBadJSON,
		},
		{
			name: "wrong field type",
			body: func(t *testing.T) []byte { return []byte(`{"grid": "two"}`) },
			code: CodeBadJSON,
		},
		{
			name: "unknown stmt kind",
			body: func(t *testing.T) []byte {
				return wire(t, storeKernel(t), func(m map[string]any) {
					k := m["kernel"].(map[string]any)
					k["body"] = []any{map[string]any{"kind": "goto"}}
				})
			},
			code: CodeBadJSON,
		},
		{
			name: "zero grid",
			body: func(t *testing.T) []byte {
				return wire(t, storeKernel(t), func(m map[string]any) { m["grid"] = 0 })
			},
			code: CodeBadShape,
		},
		{
			name: "negative grid",
			body: func(t *testing.T) []byte {
				return wire(t, storeKernel(t), func(m map[string]any) { m["grid"] = -3 })
			},
			code: CodeBadShape,
		},
		{
			name: "oversized grid",
			body: func(t *testing.T) []byte {
				return wire(t, storeKernel(t), func(m map[string]any) { m["grid"] = 1 << 20 })
			},
			code: CodeBadShape,
		},
		{
			name: "zero block",
			body: func(t *testing.T) []byte {
				return wire(t, storeKernel(t), func(m map[string]any) { m["block"] = 0 })
			},
			code: CodeBadShape,
		},
		{
			name: "negative block",
			body: func(t *testing.T) []byte {
				return wire(t, storeKernel(t), func(m map[string]any) { m["block"] = -1 })
			},
			code: CodeBadShape,
		},
		{
			name: "too many threads",
			body: func(t *testing.T) []byte {
				return wire(t, storeKernel(t), func(m map[string]any) {
					m["grid"] = lim.MaxGrid
					m["block"] = lim.MaxBlock
				})
			},
			lim:  Limits{MaxGrid: 64, MaxBlock: 256, MaxThreads: 1024, MaxBufWords: 1 << 14, MaxTotalWords: 1 << 16, MaxArrayWords: 1 << 12, MaxNodes: 4096},
			code: CodeTooLarge,
		},
		{
			name: "oversized buffer",
			body: func(t *testing.T) []byte {
				return wire(t, storeKernel(t), func(m map[string]any) {
					m["buffers"] = map[string]any{"out": make([]uint32, lim.MaxBufWords+1)}
				})
			},
			code: CodeTooLarge,
		},
		{
			name: "oversized buffer total",
			body: func(t *testing.T) []byte {
				return wire(t, storeKernel(t), func(m map[string]any) {
					bufs := map[string]any{"out": make([]uint32, 8)}
					// Each buffer is individually under MaxBufWords but the
					// sum crosses MaxTotalWords. Extra names count: they cost
					// memory whether or not the kernel declares them.
					for i := 0; i < 8; i++ {
						bufs[string(rune('a'+i))] = make([]uint32, lim.MaxBufWords)
					}
					m["buffers"] = bufs
				})
			},
			code: CodeTooLarge,
		},
		{
			name: "oversized shared array",
			body: func(t *testing.T) []byte {
				return wire(t, storeKernel(t), func(m map[string]any) {
					k := m["kernel"].(map[string]any)
					k["shared"] = []any{map[string]any{"name": "tile", "type": "u32", "count": lim.MaxArrayWords + 1}}
				})
			},
			code: CodeTooLarge,
		},
		{
			name: "zero-extent local array",
			body: func(t *testing.T) []byte {
				return wire(t, storeKernel(t), func(m map[string]any) {
					k := m["kernel"].(map[string]any)
					k["local"] = []any{map[string]any{"name": "l", "type": "u32", "count": 0}}
				})
			},
			code: CodeTooLarge,
		},
		{
			name: "node bomb",
			body: func(t *testing.T) []byte { return wire(t, storeKernel(t), nil) },
			lim:  Limits{MaxGrid: 64, MaxBlock: 256, MaxThreads: 8192, MaxBufWords: 1 << 14, MaxTotalWords: 1 << 16, MaxArrayWords: 1 << 12, MaxNodes: 1},
			code: CodeTooLarge,
		},
		{
			name: "missing buffer data",
			body: func(t *testing.T) []byte {
				return wire(t, storeKernel(t), func(m map[string]any) {
					m["buffers"] = map[string]any{}
				})
			},
			code: CodeBadShape,
		},
		{
			name: "out names a non-parameter",
			body: func(t *testing.T) []byte {
				return wire(t, storeKernel(t), func(m map[string]any) { m["out"] = "nope" })
			},
			code: CodeBadShape,
		},
		{
			name: "unknown device",
			body: func(t *testing.T) []byte {
				return wire(t, storeKernel(t), func(m map[string]any) {
					m["devices"] = []any{"GeForce 9999"}
				})
			},
			code: CodeUnknownDevice,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.lim
			if l.MaxGrid == 0 {
				l = lim
			}
			_, err := Parse(tc.body(t), l)
			if err == nil {
				t.Fatal("Parse accepted a hostile body")
			}
			var rej *Reject
			if !errors.As(err, &rej) {
				t.Fatalf("error %v (%T) is not a *Reject", err, err)
			}
			if rej.Code != tc.code {
				t.Errorf("code = %q, want %q (err: %v)", rej.Code, tc.code, err)
			}
			if Code(err) != tc.code {
				t.Errorf("Code(err) = %q, want %q", Code(err), tc.code)
			}
		})
	}
}

func TestParseDeviceDedupAndOrder(t *testing.T) {
	all := arch.All()
	body := wire(t, storeKernel(t), func(m map[string]any) {
		m["devices"] = []any{all[1].Name, all[0].Name, all[1].Name}
	})
	sub, err := Parse(body, DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Devices) != 2 || sub.Devices[0].Name != all[1].Name || sub.Devices[1].Name != all[0].Name {
		t.Errorf("devices = %v", sub.Devices)
	}
}

func TestGauntletTyped(t *testing.T) {
	div := kir.NewKernel("divbar")
	out := div.GlobalBuffer("out", kir.U32)
	div.If(kir.Lt(kir.Bi(kir.TidX), kir.U(3)), func() { div.Barrier() })
	div.Store(out, kir.U(0), kir.U(1))
	dk, err := div.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := Gauntlet(dk); !errors.Is(err, kir.ErrNonUniformBarrier) {
		t.Errorf("divergent barrier: err = %v, want ErrNonUniformBarrier", err)
	}

	lp := kir.NewKernel("zerostep")
	out2 := lp.GlobalBuffer("out", kir.U32)
	lp.For("i", kir.U(0), kir.U(10), kir.U(0), func(v kir.Expr) {
		lp.Store(out2, kir.U(0), v)
	})
	lk, err := lp.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := Gauntlet(lk); !errors.Is(err, kir.ErrUnboundedLoop) {
		t.Errorf("zero-step loop: err = %v, want ErrUnboundedLoop", err)
	}
}

func TestContentKey(t *testing.T) {
	lim := DefaultLimits()
	a1, err := Parse(wire(t, storeKernel(t), nil), lim)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Parse(wire(t, storeKernel(t), nil), lim)
	if err != nil {
		t.Fatal(err)
	}
	if a1.ContentKey() != a2.ContentKey() {
		t.Error("identical submissions have different content keys")
	}
	b, err := Parse(wire(t, storeKernel(t), func(m map[string]any) {
		m["scalars"] = map[string]any{"s": 7}
	}), lim)
	if err != nil {
		t.Fatal(err)
	}
	if a1.ContentKey() == b.ContentKey() {
		t.Error("different submissions share a content key")
	}
}

// oneDevice narrows a submission to a single NVIDIA device so execution
// tests stay fast and the CUDA personality actually runs.
func oneDevice(t *testing.T, sub *Submission) {
	t.Helper()
	for _, a := range arch.All() {
		if a.Vendor == "NVIDIA" {
			sub.Devices = []*arch.Device{a}
			return
		}
	}
	t.Fatal("no NVIDIA device modelled")
}

func TestRunValid(t *testing.T) {
	lim := DefaultLimits()
	sub, err := Parse(wire(t, storeKernel(t), nil), lim)
	if err != nil {
		t.Fatal(err)
	}
	oneDevice(t, sub)
	rep, err := Run(context.Background(), sub, lim)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Compile) != 2 {
		t.Fatalf("compile reports = %d, want 2 (cuda + opencl)", len(rep.Compile))
	}
	if len(rep.Runs) != 2 {
		t.Fatalf("runs = %d, want 2 (cuda + opencl on one NVIDIA device)", len(rep.Runs))
	}
	want := []uint32{0, 1, 2, 3, 4, 5, 6, 7}
	for _, run := range rep.Runs {
		if run.Status != "ok" {
			t.Errorf("%s/%s status = %q (%s)", run.Toolchain, run.Device, run.Status, run.Reason)
			continue
		}
		if run.OutChecksum == "" || run.WarpInstrs == 0 {
			t.Errorf("%s/%s missing checksum or instruction counts", run.Toolchain, run.Device)
		}
		for i, w := range want {
			if run.Out[i] != w {
				t.Errorf("%s/%s out[%d] = %d, want %d", run.Toolchain, run.Device, i, run.Out[i], w)
			}
		}
	}
	if rep.Runs[0].OutChecksum != rep.Runs[1].OutChecksum {
		t.Error("cuda and opencl disagree on the output checksum")
	}
	if rep.Watchdogged {
		t.Error("well-behaved kernel reported as watchdogged")
	}
}

func TestRunCUDASkipsNonNVIDIA(t *testing.T) {
	lim := DefaultLimits()
	sub, err := Parse(wire(t, storeKernel(t), nil), lim)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), sub, lim)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range rep.Runs {
		if run.Toolchain != "cuda" {
			continue
		}
		if a := arch.ByName(run.Device); a == nil || a.Vendor != "NVIDIA" {
			t.Errorf("CUDA ran on non-NVIDIA device %q", run.Device)
		}
	}
}

// TestRunCrossBlockRaceIsDeterministic submits a kernel every work-item of
// every block of which read-modify-writes out[0] without an atomic: under
// parallel compute units the result would depend on their interleaving.
// Run launches sequentially, so five runs are byte-identical (and, under
// -race, free of reports).
func TestRunCrossBlockRaceIsDeterministic(t *testing.T) {
	b := kir.NewKernel("racy")
	out := b.GlobalBuffer("out", kir.U32)
	b.For("i", kir.U(0), kir.U(32), kir.U(1), func(i kir.Expr) {
		b.Store(out, kir.U(0), kir.Add(b.Load(out, kir.U(0)), kir.Add(i, b.GlobalIDX())))
	})
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lim := DefaultLimits()
	sub, err := Parse(wire(t, k, func(m map[string]any) { m["grid"], m["block"] = 16, 64 }), lim)
	if err != nil {
		t.Fatal(err)
	}
	var first []byte
	for i := 0; i < 5; i++ {
		rep, err := Run(context.Background(), sub, lim)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range rep.Runs {
			if run.Status != "ok" {
				t.Fatalf("%s/%s status = %q (%s)", run.Toolchain, run.Device, run.Status, run.Reason)
			}
		}
		runs, err := json.Marshal(rep.Runs)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = runs
		} else if string(runs) != string(first) {
			t.Fatalf("run %d differs from run 0:\n%s\n%s", i, runs, first)
		}
	}
}

// TestRunWatchdog submits a kernel whose loop step is data-dependent and
// zero at run time — exactly the shape the static gauntlet cannot refuse
// — and asserts the step budget kills it instead of hanging the worker.
func TestRunWatchdog(t *testing.T) {
	b := kir.NewKernel("spin")
	out := b.GlobalBuffer("out", kir.U32)
	gid := b.Declare("gid", b.GlobalIDX())
	b.For("i", kir.U(0), kir.U(10), b.Load(out, kir.U(0)), func(v kir.Expr) {
		b.Store(out, gid, v)
	})
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := Gauntlet(k); err != nil {
		t.Fatalf("watchdog bait must pass the static gauntlet, got %v", err)
	}
	lim := DefaultLimits()
	lim.StepBudget = 1 << 12
	sub, err := Parse(wire(t, k, func(m map[string]any) {
		m["grid"], m["block"] = 1, 4
		m["buffers"] = map[string]any{"out": []any{0, 0, 0, 0}}
	}), lim)
	if err != nil {
		t.Fatal(err)
	}
	oneDevice(t, sub)
	rep, err := Run(context.Background(), sub, lim)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Watchdogged {
		t.Fatal("non-terminating kernel did not trip the watchdog")
	}
	for _, run := range rep.Runs {
		if run.Status != "watchdog" {
			t.Errorf("%s/%s status = %q, want watchdog", run.Toolchain, run.Device, run.Status)
		}
	}
}

// TestRunOOBFault stores beyond the addressable window; the sim must
// return a typed runtime error, which Run folds into a "fault" DeviceRun
// rather than an error (or a panic).
func TestRunOOBFault(t *testing.T) {
	b := kir.NewKernel("oob")
	out := b.GlobalBuffer("out", kir.U32)
	b.Store(out, kir.U(1<<27), kir.U(1))
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lim := DefaultLimits()
	sub, err := Parse(wire(t, k, nil), lim)
	if err != nil {
		t.Fatal(err)
	}
	oneDevice(t, sub)
	rep, err := Run(context.Background(), sub, lim)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range rep.Runs {
		if run.Status != "fault" {
			t.Errorf("%s/%s status = %q (%s), want fault", run.Toolchain, run.Device, run.Status, run.Reason)
		}
	}
}

// TestRunNoMemoryReuseAcrossTenants pins what tenant isolation rests on:
// every run gets fresh device memory, never a pooled or recycled backing.
// The first submission stores a marker 4 MiB past its buffer (inside the
// addressable window, so it sticks — the run reads it back); the second,
// on the same device model, loads that address and must read 0.
func TestRunNoMemoryReuseAcrossTenants(t *testing.T) {
	const far, marker = 1 << 20, 0xbeef
	build := func(name string, plant bool) *kir.Kernel {
		b := kir.NewKernel(name)
		out := b.GlobalBuffer("out", kir.U32)
		if plant {
			b.Store(out, kir.U(far), kir.U(marker))
		}
		b.Store(out, b.GlobalIDX(), b.Load(out, kir.U(far)))
		k, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	lim := DefaultLimits()
	for _, tc := range []struct {
		name  string
		plant bool
		want  uint32
	}{{"planter", true, marker}, {"snooper", false, 0}} {
		sub, err := Parse(wire(t, build(tc.name, tc.plant), nil), lim)
		if err != nil {
			t.Fatal(err)
		}
		oneDevice(t, sub)
		rep, err := Run(context.Background(), sub, lim)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range rep.Runs {
			if run.Status != "ok" {
				t.Fatalf("%s %s/%s status = %q (%s)", tc.name, run.Toolchain, run.Device, run.Status, run.Reason)
			}
			for i, w := range run.Out {
				if w != tc.want {
					t.Errorf("%s %s/%s out[%d] = %#x, want %#x", tc.name, run.Toolchain, run.Device, i, w, tc.want)
				}
			}
		}
	}
}

func TestRunOutTruncation(t *testing.T) {
	lim := DefaultLimits()
	lim.MaxOutWords = 4
	sub, err := Parse(wire(t, storeKernel(t), nil), lim)
	if err != nil {
		t.Fatal(err)
	}
	oneDevice(t, sub)
	rep, err := Run(context.Background(), sub, lim)
	if err != nil {
		t.Fatal(err)
	}
	full := checksumWords([]uint32{0, 1, 2, 3, 4, 5, 6, 7})
	for _, run := range rep.Runs {
		if !run.OutTruncated || len(run.Out) != 4 {
			t.Errorf("%s: truncated=%v len=%d, want truncated to 4", run.Toolchain, run.OutTruncated, len(run.Out))
		}
		if run.OutChecksum != full {
			t.Errorf("%s: checksum %q not over the full buffer (%q)", run.Toolchain, run.OutChecksum, full)
		}
	}
}

func TestDiffLines(t *testing.T) {
	if d := diffLines("a\nb\nc", "a\nb\nc", 100); len(d) != 0 {
		t.Errorf("identical inputs produced a diff: %v", d)
	}
	d := diffLines("a\nb\nc", "a\nx\nc", 100)
	var gotMinus, gotPlus bool
	for _, l := range d {
		if strings.HasPrefix(l, "-") && strings.Contains(l, "b") {
			gotMinus = true
		}
		if strings.HasPrefix(l, "+") && strings.Contains(l, "x") {
			gotPlus = true
		}
	}
	if !gotMinus || !gotPlus {
		t.Errorf("diff missing -b/+x lines: %v", d)
	}

	// Output cap: a large diff must truncate with a marker, never grow
	// proportionally to attacker-controlled input.
	var a, bld strings.Builder
	for i := 0; i < 500; i++ {
		a.WriteString("left\n")
		bld.WriteString("right\n")
	}
	d = diffLines(a.String(), bld.String(), 10)
	if len(d) > 11 {
		t.Errorf("diff has %d lines, cap was 10(+marker)", len(d))
	}
	if last := d[len(d)-1]; !strings.Contains(last, "more lines") {
		t.Errorf("truncated diff missing marker, last line %q", last)
	}
}
