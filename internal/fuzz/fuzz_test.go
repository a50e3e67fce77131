package fuzz

import (
	"bytes"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"gpucmp/internal/kir"
)

// TestFreshSeedsAllDevices is the main acceptance sweep: 200 freshly
// generated kernels, each run through the reference interpreter and both
// personalities on every modelled device, all outputs bit-identical.
// Seeds are distributed over a worker pool so the sweep stays well inside
// the CI time budget. Half come from the prefix CI's fixed-seed campaign
// also starts at, half from a window far away from it: 204000039 sat there
// undiscovered (the loop-carried CSE miscompile) while 1–200 stayed green.
func TestFreshSeedsAllDevices(t *testing.T) {
	windows := []uint64{1, 204000000}
	perWindow := 100
	if testing.Short() {
		perWindow = 13
	}
	seeds := len(windows) * perWindow
	cfg := DefaultConfig()

	var (
		mu   sync.Mutex
		camp = &Campaign{}
	)
	jobs := make(chan uint64)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range jobs {
				p := Generate(seed, cfg)
				res, err := Check(p, nil)
				mu.Lock()
				if err != nil {
					t.Errorf("seed %d: %v", seed, err)
				} else {
					camp.Add(res)
					if res.Divergence != nil {
						t.Errorf("%s", res.Divergence.Error())
					}
				}
				mu.Unlock()
			}
		}()
	}
	for _, first := range windows {
		for i := 0; i < perWindow; i++ {
			jobs <- first + uint64(i)
		}
	}
	close(jobs)
	wg.Wait()

	if camp.Programs != seeds {
		t.Fatalf("ran %d programs, want %d", camp.Programs, seeds)
	}
	t.Logf("campaign:\n%s", camp.Summary())
}

// TestGenerateDeterministic: the same (seed, config) pair must yield a
// byte-identical program, or corpus seeds and CI campaigns would not
// replay.
func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	for seed := uint64(1); seed <= 20; seed++ {
		a, err := Encode(Generate(seed, cfg))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Encode(Generate(seed, cfg))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
}

// TestGeneratorValidity checks the static guarantees over many seeds and
// feature subsets: every generated kernel type-checks and keeps its
// barriers in uniform control flow. Generation itself panics on
// violation, so the body only needs to drive the configurations.
func TestGeneratorValidity(t *testing.T) {
	cfgs := []GenConfig{DefaultConfig()}
	minimal := DefaultConfig()
	minimal.Features = Features{}
	cfgs = append(cfgs, minimal)
	noShared := DefaultConfig()
	noShared.Features.Shared = false
	noShared.Features.Reduction = false
	cfgs = append(cfgs, noShared)
	deep := DefaultConfig()
	deep.MaxDepth = 5
	deep.MaxStmts = 8
	deep.MaxPhases = 5
	cfgs = append(cfgs, deep)

	for ci, cfg := range cfgs {
		for seed := uint64(1); seed <= 150; seed++ {
			p := Generate(seed, cfg)
			if err := kir.Check(p.Kernel); err != nil {
				t.Fatalf("config %d seed %d: %v", ci, seed, err)
			}
			if err := kir.CheckUniformBarriers(p.Kernel); err != nil {
				t.Fatalf("config %d seed %d: %v", ci, seed, err)
			}
			if len(p.Buffers[p.Out]) != p.Grid*p.Block {
				t.Fatalf("config %d seed %d: out buffer %d words for %d threads",
					ci, seed, len(p.Buffers[p.Out]), p.Grid*p.Block)
			}
		}
	}
}

// TestEncodeRoundTrip: Encode -> Decode -> Encode must be stable, and the
// decoded program must behave identically on the reference interpreter.
func TestEncodeRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	for seed := uint64(1); seed <= 25; seed++ {
		p := Generate(seed, cfg)
		data, err := Encode(p)
		if err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		q, err := Decode(data)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		data2, err := Encode(q)
		if err != nil {
			t.Fatalf("seed %d: re-encode: %v", seed, err)
		}
		if !bytes.Equal(data, data2) {
			t.Fatalf("seed %d: encode/decode/encode not stable", seed)
		}
		want, err := Reference(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Reference(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: decoded program diverges from original at out[%d]", seed, i)
			}
		}
	}
}

// TestDecodeRejectsBadOut: a corpus program's out must be a global buffer
// parameter of its kernel. An out that names an extra buffer, or a
// constant one, used to decode, and Check then reported a miscompile: the
// devices read address 0 while the reference returned the untouched
// buffer.
func TestDecodeRejectsBadOut(t *testing.T) {
	data, err := os.ReadFile("corpus/fz1.json")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	p.Buffers["extra"] = make([]uint32, len(p.Buffers[p.Out]))
	p.Out = "extra"
	if data, err = Encode(p); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "not a buffer parameter") {
		t.Errorf("out naming an extra buffer: Decode error %v, want not a buffer parameter", err)
	}

	for seed := uint64(1); seed <= 50; seed++ {
		p := Generate(seed, DefaultConfig())
		var c *kir.Param
		for i := range p.Kernel.Params {
			if prm := &p.Kernel.Params[i]; prm.Buffer && prm.Space == kir.Const {
				c = prm
			}
		}
		if c == nil {
			continue
		}
		p.Out = c.Name
		data, err := Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "want global") {
			t.Errorf("seed %d: out naming constant buffer %q: Decode error %v, want global", seed, c.Name, err)
		}
		return
	}
	t.Fatal("no generated program in seeds 1-50 has a constant buffer")
}

// TestShrink exercises the minimiser against a synthetic predicate (the
// reference output contains an odd word). The result must be valid, still
// satisfy the predicate, and be no larger than the input.
func TestShrink(t *testing.T) {
	hasOdd := func(p *Program) bool {
		out, err := Reference(p)
		if err != nil {
			return false
		}
		for _, w := range out {
			if w&1 == 1 {
				return true
			}
		}
		return false
	}
	cfg := DefaultConfig()
	shrunk := 0
	for seed := uint64(1); seed <= 8; seed++ {
		p := Generate(seed, cfg)
		if !hasOdd(p) {
			continue
		}
		before := kir.CountNodes(p.Kernel.Body)
		small := Shrink(p, hasOdd)
		after := kir.CountNodes(small.Kernel.Body)
		if !hasOdd(small) {
			t.Fatalf("seed %d: shrink lost the predicate", seed)
		}
		if err := kir.Check(small.Kernel); err != nil {
			t.Fatalf("seed %d: shrunk kernel invalid: %v", seed, err)
		}
		if err := kir.CheckUniformBarriers(small.Kernel); err != nil {
			t.Fatalf("seed %d: shrunk kernel barrier-divergent: %v", seed, err)
		}
		if after > before {
			t.Fatalf("seed %d: shrink grew the kernel: %d -> %d nodes", seed, before, after)
		}
		if after < before {
			shrunk++
		}
	}
	if shrunk == 0 {
		t.Fatal("shrinker never removed a single node across all seeds")
	}
}

// TestShrinkPreservesOracleAgreement: a shrunk healthy program must still
// pass the oracle — minimisation edits may not themselves introduce
// divergence (e.g. by breaking the race-freedom discipline).
func TestShrinkPreservesOracleAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	hasOdd := func(p *Program) bool {
		out, err := Reference(p)
		if err != nil {
			return false
		}
		for _, w := range out {
			if w&1 == 1 {
				return true
			}
		}
		return false
	}
	p := Generate(3, DefaultConfig())
	if !hasOdd(p) {
		t.Skip("seed has no odd output word")
	}
	small := Shrink(p, hasOdd)
	res, err := Check(small, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Divergence != nil {
		t.Fatalf("shrinking introduced a divergence:\n%s", res.Divergence.Error())
	}
}
