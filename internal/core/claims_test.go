package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/golden"
	"gpucmp/internal/ptx"
	"gpucmp/internal/stats"
)

// paperFigures are the rows of the figure table that are the paper's own
// artifacts; the rows after them are the repository's studies.
var paperFigures = []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "tableV", "tableVI"}

// scale1 is what the claims are read from: each paper figure's Study at
// scale 1, the paper's problem sizes, and Section V's efficiency study,
// which the tableVI row prints.
type scale1 struct {
	fig  map[string]any
	effs []Efficiency
}

// claim is one assertion about the paper's evaluation.
type claim struct {
	// test is the test that checks the claim, one of claimTests.
	test                    string
	figure, device, subject string
	// paper is the paper's value: a number, a Table VI status, or nil
	// where the paper states only a direction.
	paper any
	check check
	// model reads the model's value: a number or a status.
	model func(*scale1) any
}

// check is a claim's criterion and how the golden prints it.
type check struct {
	text string
	ok   func(any) bool
}

func number(text string, ok func(float64) bool) check {
	return check{text, func(v any) bool {
		x, isNum := v.(float64)
		return isNum && ok(x)
	}}
}

func near(want, tol float64) check {
	return number(fmt.Sprintf("%g ± %g", want, tol), func(x float64) bool { return math.Abs(x-want) <= tol })
}

func above(min float64) check {
	return number(fmt.Sprintf("> %g", min), func(x float64) bool { return x > min })
}

func below(max float64) check {
	return number(fmt.Sprintf("< %g", max), func(x float64) bool { return x < max })
}

func atMost(max float64) check {
	return number(fmt.Sprintf("<= %g", max), func(x float64) bool { return x <= max })
}

func equals(want float64) check {
	return number(fmt.Sprintf("= %g", want), func(x float64) bool { return x == want })
}

// similar is the paper's band, |1 - PR| < 0.1.
var similar = number("similar", Similar)

// fractionOfPeak holds for a share of a device's peak in (0, 1], or for
// the status of a run that did not complete, which Table VI's rows check.
var fractionOfPeak = check{"in (0,1] if OK", func(v any) bool {
	switch v := v.(type) {
	case float64:
		return v > 0 && v <= 1
	case string:
		return true
	}
	return false
}}

// status holds when a Table VI cell, "OK <value>" or a failure status,
// has the given status.
func status(want string) check {
	return check{"= " + want, func(v any) bool {
		s, isText := v.(string)
		return isText && strings.Fields(s)[0] == want
	}}
}

// claimTests are the tests that check the claims, each its own rows of
// the table.
var claimTests = []string{
	"TestPeakFractions", "TestFig3Shape", "TestTextureStudies", "TestUnrollStudies", "TestConstantStudy",
	"TestTableVShape", "TestDynamicGlobalTrafficEqual", "TestPortabilityMatchesTableVI", "TestEfficiencyStudy",
}

// claims lists every assertion about the paper's Figs. 1–8 and Tables V
// and VI, in the paper's order.
func claims() []claim {
	gtx280, gtx480 := arch.GTX280().Name, arch.GTX480().Name
	var (
		cs   []claim
		test string
	)
	add := func(figure, device, subject string, paper any, ck check, model func(*scale1) any) {
		cs = append(cs, claim{test, figure, device, subject, paper, ck, model})
	}

	test = "TestPeakFractions"
	// Figs. 1 and 2: the calibration targets of DESIGN.md §4.
	peaks := []struct {
		device                  string
		bw, bwRatio, flops, tol float64
	}{{gtx280, 0.686, 1.085, 0.715, 0.06}, {gtx480, 0.877, 1.024, 0.977, 0.08}}
	for _, p := range peaks {
		add("fig1", p.device, "OpenCL share of TP_BW", p.bw, near(p.bw, 0.05),
			func(d *scale1) any { return d.peak("fig1", p.device).FractionOpenCL() })
		add("fig1", p.device, "OpenCL/CUDA bandwidth", p.bwRatio, near(p.bwRatio, 0.03),
			func(d *scale1) any { r := d.peak("fig1", p.device); return r.OpenCL / r.CUDA })
	}
	for _, p := range peaks {
		add("fig2", p.device, "OpenCL share of TP_FLOPS", p.flops, near(p.flops, p.tol),
			func(d *scale1) any { return d.peak("fig2", p.device).FractionOpenCL() })
		// "OpenCL obtains almost the same AP_FLOPS as CUDA".
		add("fig2", p.device, "OpenCL/CUDA FLOPS", 1.0, near(1, 0.05),
			func(d *scale1) any { r := d.peak("fig2", p.device); return r.OpenCL / r.CUDA })
	}

	test = "TestFig3Shape"
	// Fig. 3: the unmodified OpenCL Sobel beats CUDA's on the GTX280 (the
	// constant-memory outlier) but not on the GTX480, whose cache evens
	// them; FFT (front-end code quality) and BFS (launch overhead) favour
	// CUDA on both.
	for _, device := range []string{gtx280, gtx480} {
		add("fig3", device, "bars", 14.0, equals(14),
			func(d *scale1) any { return float64(len(d.fig["fig3"].(map[string][]*Comparison)[device])) })
	}
	add("fig3", gtx280, "Sobel PR", 3.2, above(1), func(d *scale1) any { return d.pr("fig3", gtx280, "Sobel") })
	add("fig3", gtx480, "Sobel PR", 0.83, below(1), func(d *scale1) any { return d.pr("fig3", gtx480, "Sobel") })
	for _, name := range []string{"FFT", "BFS"} {
		for _, device := range []string{gtx280, gtx480} {
			add("fig3", device, name+" PR", nil, below(1), func(d *scale1) any { return d.pr("fig3", device, name) })
		}
	}

	test = "TestTextureStudies"
	// Fig. 4: removing texture memory never speeds the CUDA MD or SPMV up.
	// Fig. 5: with it removed from both, the toolchains perform alike.
	for _, p := range []struct {
		device, bench string
		paper         float64
	}{{gtx280, "MD", 0.876}, {gtx280, "SPMV", 0.651}, {gtx480, "MD", 0.596}, {gtx480, "SPMV", 0.443}} {
		add("fig4", p.device, p.bench+" without/with texture", p.paper, below(1),
			func(d *scale1) any { return d.texture(p.device, p.bench) })
	}
	for _, device := range []string{gtx280, gtx480} {
		for _, name := range []string{"MD", "SPMV"} {
			add("fig5", device, name+" PR, no texture", 1.0, similar,
				func(d *scale1) any { return d.pr("fig5", device, name) })
		}
	}

	test = "TestUnrollStudies"
	// Fig. 6: the pragma at point a does not hurt CUDA. Fig. 7: unrolled
	// at a and b, the OpenCL build is the slower one; unrolled at b only,
	// it is at most 10% ahead on the GTX480. On the GTX280 the paper has it
	// 15% ahead and the model has it behind: a known deviation, pinned.
	add("fig6", gtx280, "without/with pragma at a", 0.851, atMost(1.02), func(d *scale1) any { return d.unroll(gtx280) })
	add("fig6", gtx480, "without/with pragma at a", 0.826, atMost(1.02), func(d *scale1) any { return d.unroll(gtx480) })
	deviation := check{"deviation", func(any) bool { return true }}
	for _, p := range []struct {
		device, label string
		paper         float64
		check         check
	}{
		{gtx280, "unroll@b", 1.151, deviation},
		{gtx280, "unroll@a,b", 0.483, below(1)},
		{gtx480, "unroll@b", 1.0, below(1.1)},
		{gtx480, "unroll@a,b", 0.661, below(1)},
	} {
		add("fig7", p.device, p.label+" PR", p.paper, p.check, func(d *scale1) any { return d.combo(p.device, p.label) })
	}

	test = "TestConstantStudy"
	// Fig. 8: constant memory matters on GT200 and hardly at all under
	// Fermi's L1.
	add("fig8", gtx280, "constant-memory speedup", 4.0, above(1.1), func(d *scale1) any { return d.constant(gtx280) })
	add("fig8", gtx480, "constant-memory speedup", 1.0, near(1, 0.1), func(d *scale1) any { return d.constant(gtx480) })
	add("fig8", "", "GTX280 over GTX480 speedup", 4.0, above(1),
		func(d *scale1) any { return d.constant(gtx280) / d.constant(gtx480) })

	test = "TestTableVShape"
	// Table V: NVOPENCC is mov-heavy, the OpenCL front end shift- and
	// flow-control-heavy; arguments come from ld.param in CUDA and ld.const
	// in OpenCL; barriers match; both stage through local memory.
	op := func(o ptx.Opcode, s ptx.Space) string { return ptx.OpKey{Op: o, Space: s}.String() }
	for _, p := range []struct {
		subject, instr string
		class          ptx.Class
		paper          float64
		openclOverCUDA bool
	}{
		{"mov, CUDA/OpenCL", op(ptx.OpMov, ptx.SpaceNone), 0, 687.0 / 88, false},
		{"Logic/Shift, OpenCL/CUDA", "", ptx.ClassLogicShift, 163.0 / 4, true},
		{"Flow Control, OpenCL/CUDA", "", ptx.ClassFlowControl, 188.0 / 4, true},
	} {
		add("tableV", "", p.subject, p.paper, above(1), func(d *scale1) any {
			cu, cl := d.census(true, p.instr, p.class), d.census(false, p.instr, p.class)
			if p.openclOverCUDA {
				return cl / cu
			}
			return cu / cl
		})
	}
	for _, p := range []struct {
		cuda  bool
		instr string
		paper float64
		ck    check
	}{
		{true, op(ptx.OpLd, ptx.SpaceParam), 1, above(0)},
		{true, op(ptx.OpLd, ptx.SpaceConst), 0, equals(0)},
		{false, op(ptx.OpLd, ptx.SpaceConst), 24, above(0)},
		{false, op(ptx.OpLd, ptx.SpaceParam), 0, equals(0)},
	} {
		add("tableV", "", toolchainName(p.cuda)+" "+p.instr, p.paper, p.ck,
			func(d *scale1) any { return d.census(p.cuda, p.instr, 0) })
	}
	bar := op(ptx.OpBar, ptx.SpaceNone)
	add("tableV", "", "bar, OpenCL/CUDA", 1.0, equals(1),
		func(d *scale1) any { return d.census(false, bar, 0) / d.census(true, bar, 0) })
	// The paper gives ld.local and st.local as one sum (347 and 142).
	for _, cuda := range []bool{true, false} {
		for _, instr := range []string{op(ptx.OpLd, ptx.SpaceLocal), op(ptx.OpSt, ptx.SpaceLocal)} {
			add("tableV", "", toolchainName(cuda)+" "+instr, nil, above(0),
				func(d *scale1) any { return d.census(cuda, instr, 0) })
		}
	}
	add("tableV", "", "report headings (of 5)", nil, equals(5), func(d *scale1) any {
		n := 0
		for _, want := range []string{"Arithmetic", "SUB-TOTAL", "TOTAL", "CUDA", "OpenCL"} {
			if strings.Contains(d.fig["tableV"].(ptxCensus).Report, want) {
				n++
			}
		}
		return float64(n)
	})
	test = "TestDynamicGlobalTrafficEqual"
	// "All time-consuming instructions such as ld.global and st.global are
	// exactly the same": true of the FFT as Fig. 3 executes it.
	for _, device := range []string{gtx280, gtx480} {
		add("tableV", device, "FFT executed ld/st.global, OpenCL/CUDA", 1.0, equals(1),
			func(d *scale1) any {
				c := d.comparison("fig3", device, "FFT")
				if c == nil {
					return math.NaN()
				}
				return globalTraffic(c.OpenCL) / globalTraffic(c.CUDA)
			})
	}

	test = "TestPortabilityMatchesTableVI"
	// Table VI: RdxS fails on the 64-wide wavefront devices, FFT, DXTC,
	// RdxS and STNW abort on the Cell/BE, and everything else runs.
	devices := []string{arch.HD5870().Name, arch.Intel920().Name, arch.CellBE().Name}
	add("tableVI", "", "cells", 42.0, equals(42),
		func(d *scale1) any { return float64(len(d.fig["tableVI"].([]PortabilityCell))) })
	for _, device := range devices {
		for _, s := range Fig3Benchmarks() {
			want := "OK"
			switch {
			case s.Name == "RdxS" && device != arch.CellBE().Name:
				want = "FL"
			case device == arch.CellBE().Name && (s.Name == "FFT" || s.Name == "DXTC" || s.Name == "RdxS" || s.Name == "STNW"):
				want = "ABT"
			}
			add("tableVI", device, s.Name, want, status(want), func(d *scale1) any { return d.cell(device, s.Name) })
		}
	}

	test = "TestEfficiencyStudy"
	// Section V quantified: each OpenCL run's share of its device's peak,
	// and each benchmark's portability score, are fractions; only the
	// GFlops and GB/s benchmarks are normalisable.
	normalisable := []string{"TranP", "Reduce", "FFT", "MD", "SPMV", "MxM"}
	for _, a := range arch.All() {
		for _, name := range normalisable {
			add("tableVI", a.Name, name+" share of peak", nil, fractionOfPeak, func(d *scale1) any {
				for _, e := range d.effs {
					if e.Benchmark == name && e.Device == a.Name {
						if e.Status != "OK" {
							return e.Status
						}
						return e.Fraction
					}
				}
				return nil
			})
		}
	}
	rowsOf := func(names ...string) func(*scale1) any {
		return func(d *scale1) any {
			n := 0
			for _, e := range d.effs {
				for _, name := range names {
					if e.Benchmark == name {
						n++
					}
				}
			}
			return float64(n)
		}
	}
	for _, name := range normalisable {
		add("tableVI", "", name+" devices with a share of peak", 5.0, equals(5), rowsOf(name))
	}
	add("tableVI", "", "Sobel and BFS devices with a share of peak", 0.0, equals(0), rowsOf("Sobel", "BFS"))
	for _, name := range normalisable {
		add("tableVI", "", name+" portability score", nil, number("in (0,1]", func(x float64) bool { return x > 0 && x <= 1 }),
			func(d *scale1) any { return PortabilityScore(d.effs, name) })
	}
	// RdxS reports no rate, and a name with no rows has no score.
	for _, name := range []string{"RdxS", "nothing"} {
		add("tableVI", "", name+" portability score", nil, number("NaN", math.IsNaN),
			func(d *scale1) any { return PortabilityScore(d.effs, name) })
	}
	return cs
}

func toolchainName(cuda bool) string {
	if cuda {
		return "CUDA"
	}
	return "OpenCL"
}

// globalTraffic counts a run's executed ld.global and st.global.
func globalTraffic(r *bench.Result) float64 {
	var n int64
	for _, tr := range r.Traces {
		n += tr.Dyn.Get(ptx.OpLd, ptx.SpaceGlobal) + tr.Dyn.Get(ptx.OpSt, ptx.SpaceGlobal)
	}
	return float64(n)
}

func (d *scale1) peak(id, device string) PeakResult {
	for _, r := range d.fig[id].([]PeakResult) {
		if r.Device == device {
			return r
		}
	}
	return PeakResult{Theoretical: math.NaN(), CUDA: math.NaN(), OpenCL: math.NaN()}
}

func (d *scale1) comparison(id, device, name string) *Comparison {
	for _, c := range d.fig[id].(map[string][]*Comparison)[device] {
		if c.Benchmark == name {
			return c
		}
	}
	return nil
}

func (d *scale1) pr(id, device, name string) float64 {
	if c := d.comparison(id, device, name); c != nil {
		return c.PR
	}
	return math.NaN()
}

func (d *scale1) texture(device, name string) float64 {
	for _, t := range d.fig["fig4"].([]TextureImpact) {
		if t.Device == device && t.Benchmark == name {
			return t.Ratio()
		}
	}
	return math.NaN()
}

func (d *scale1) unroll(device string) float64 {
	for _, u := range d.fig["fig6"].([]UnrollImpact) {
		if u.Device == device {
			return u.Ratio()
		}
	}
	return math.NaN()
}

func (d *scale1) combo(device, label string) float64 {
	for _, c := range d.fig["fig7"].(map[string][]UnrollCombo)[device] {
		if c.Label == label {
			return c.PR
		}
	}
	return math.NaN()
}

func (d *scale1) constant(device string) float64 {
	for _, c := range d.fig["fig8"].([]ConstantImpact) {
		if c.Device == device {
			return c.Speedup()
		}
	}
	return math.NaN()
}

// census counts Table V's instr, or, with instr empty, its class, in one
// front end's static statistics.
func (d *scale1) census(cuda bool, instr string, class ptx.Class) float64 {
	rows := d.fig["tableV"].(ptxCensus).OpenCL
	if cuda {
		rows = d.fig["tableV"].(ptxCensus).CUDA
	}
	var n int64
	for _, r := range rows {
		if instr != "" && r.Instruction == instr || instr == "" && r.Class == class.String() {
			n += r.Count
		}
	}
	return float64(n)
}

// cell is a Table VI entry as the table prints it: "OK" and the value, or
// the failure status.
func (d *scale1) cell(device, name string) any {
	for _, c := range d.fig["tableVI"].([]PortabilityCell) {
		if c.Device == device && c.Benchmark == name {
			if c.Status == "OK" {
				return fmt.Sprintf("OK %.4g", c.Value)
			}
			return c.Status
		}
	}
	return nil
}

// memo is a Runner that simulates each distinct cell once, however many
// studies ask for it.
type memo struct {
	mu      sync.Mutex
	cells   map[memoKey]*memoCell
	repeats int
}

type memoKey struct {
	device, toolchain, bench string
	cfg                      bench.Config
}

type memoCell struct {
	once sync.Once
	r    *bench.Result
	err  error
}

func (m *memo) run(a *arch.Device, toolchain string, spec bench.Spec, cfg bench.Config) (*bench.Result, error) {
	k := memoKey{a.Name, toolchain, spec.Name, cfg}
	m.mu.Lock()
	c, ok := m.cells[k]
	if ok {
		m.repeats++
	} else {
		c = &memoCell{}
		m.cells[k] = c
	}
	m.mu.Unlock()
	c.once.Do(func() { c.r, c.err = Direct(a, toolchain, spec, cfg) })
	return c.r, c.err
}

// paper holds the studies every claim is read from, run once for all the
// claim tests.
var paper struct {
	once           sync.Once
	d              *scale1
	err            error
	cells, repeats int
}

// paperData runs every paper figure's Study, and the efficiency study, at
// scale 1 through one memoizing Runner, the studies side by side.
func paperData(t *testing.T) *scale1 {
	t.Helper()
	paper.once.Do(func() {
		m := &memo{cells: make(map[memoKey]*memoCell)}
		d := &scale1{fig: make(map[string]any)}
		var (
			mu   sync.Mutex
			wg   sync.WaitGroup
			errs []error
		)
		study := func(id string, f func() (any, error)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				data, err := f()
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					errs = append(errs, fmt.Errorf("%s: %w", id, err))
				}
				d.fig[id] = data
			}()
		}
		for _, id := range paperFigures {
			f, ok := FigureByID(id)
			if !ok {
				errs = append(errs, fmt.Errorf("no %s row", id))
				continue
			}
			study(id, func() (any, error) { return f.Study(m.run, f.Devices(), 1) })
		}
		study("efficiency", func() (any, error) { return EfficiencyStudy(m.run, 1) })
		wg.Wait()
		if paper.err = errors.Join(errs...); paper.err != nil {
			return
		}
		d.effs = d.fig["efficiency"].([]Efficiency)
		paper.d, paper.cells, paper.repeats = d, len(m.cells), m.repeats
	})
	if paper.err != nil {
		t.Fatal(paper.err)
	}
	return paper.d
}

// checkClaims checks the claims that name test against the model at
// scale 1, the problem sizes the paper's verdicts hold at.
func checkClaims(t *testing.T, test string) {
	d := paperData(t)
	n := 0
	for _, c := range claims() {
		if c.test != test {
			continue
		}
		n++
		if v := c.model(d); !c.check.ok(v) {
			t.Errorf("%s %s %s: model %s, want %s (paper %s)", c.figure, c.device, c.subject, show(v), c.check.text, show(c.paper))
		}
	}
	if n == 0 {
		t.Fatalf("no claim names %s", test)
	}
}

// TestPeakFractions checks the Fig. 1 and Fig. 2 calibration targets
// end to end through the benchmarks: OpenCL reaches about 68.6% / 87.7%
// of TP_BW and beats CUDA by about 8.5% / 2.4%; both toolchains reach the
// same achieved FLOPS.
func TestPeakFractions(t *testing.T) { checkClaims(t, "TestPeakFractions") }

// TestFig3Shape checks the headline observations of Fig. 3's PRs.
func TestFig3Shape(t *testing.T) { checkClaims(t, "TestFig3Shape") }

// TestTextureStudies checks Fig. 4 (removing texture memory hurts the
// CUDA MD and SPMV) and Fig. 5 (with it removed from both, the toolchains
// perform alike).
func TestTextureStudies(t *testing.T) { checkClaims(t, "TestTextureStudies") }

// TestUnrollStudies checks Figs. 6 and 7: the pragma at point a does not
// hurt CUDA, and the OpenCL build is the slower side of the combos.
func TestUnrollStudies(t *testing.T) { checkClaims(t, "TestUnrollStudies") }

// TestConstantStudy checks Fig. 8: constant memory matters on GT200 and is
// nearly irrelevant on Fermi.
func TestConstantStudy(t *testing.T) { checkClaims(t, "TestConstantStudy") }

// TestTableVShape checks the front ends' instruction-census contrasts of
// Table V on the FFT forward kernel.
func TestTableVShape(t *testing.T) { checkClaims(t, "TestTableVShape") }

// TestDynamicGlobalTrafficEqual checks the paper's observation that "all
// time-consuming instructions such as ld.global and st.global are exactly
// the same", dynamically, for the FFT under both toolchains.
func TestDynamicGlobalTrafficEqual(t *testing.T) { checkClaims(t, "TestDynamicGlobalTrafficEqual") }

// TestPortabilityMatchesTableVI checks the status grid of Table VI.
func TestPortabilityMatchesTableVI(t *testing.T) { checkClaims(t, "TestPortabilityMatchesTableVI") }

// TestEfficiencyStudy checks that each OpenCL run's share of its device's
// peak, and each benchmark's portability score, are fractions, and that
// only the GFlops and GB/s benchmarks are normalised.
func TestEfficiencyStudy(t *testing.T) { checkClaims(t, "TestEfficiencyStudy") }

// TestPaperClaims pins each claim's row (the paper's value, the model's at
// scale 1 and the log ratio between them) with Fig. 3's bars in
// testdata/claims.golden, so a model change that moves any number
// EXPERIMENTS.md quotes fails here until the golden is re-recorded with
// -update. The claim tests above check the rows' criteria.
func TestPaperClaims(t *testing.T) {
	d := paperData(t)
	t.Logf("%d cells simulated, %d repeated calls answered from memory", paper.cells, paper.repeats)

	tb := stats.NewTable("", "figure", "device", "subject", "paper", "model", "ln(model/paper)", "check")
	for _, c := range claims() {
		if !slices.Contains(claimTests, c.test) {
			t.Errorf("%s %s %s: checked by %q, not a claim test", c.figure, c.device, c.subject, c.test)
		}
		v := c.model(d)
		tb.Add(c.figure, orDash(c.device), c.subject, show(c.paper), show(v), logRatio(v, c.paper), c.check.text)
	}
	var b strings.Builder
	b.WriteString("The paper's claims at scale 1, one row per assertion; \"—\": the paper states no number.\n\n")
	b.WriteString(tb.String())
	series := d.fig["fig3"].(map[string][]*Comparison)
	for _, a := range nvidia() {
		fmt.Fprintf(&b, "\nFig. 3 on %s (PR > 1: OpenCL faster)\n", a.Name)
		var prs []float64
		for _, c := range series[a.Name] {
			fmt.Fprintf(&b, "  %-7s %.3f\n", c.Benchmark, c.PR)
			prs = append(prs, c.PR)
		}
		fmt.Fprintf(&b, "  geomean %.3f\n", stats.GeoMean(prs))
	}
	golden.Check(t, "testdata/claims.golden", []byte(b.String()))
}

func show(v any) string {
	switch v := v.(type) {
	case nil:
		return "—"
	case float64:
		return fmt.Sprintf("%.4g", v)
	}
	return fmt.Sprint(v)
}

func orDash(s string) string {
	if s == "" {
		return "—"
	}
	return s
}

// logRatio is ln(model/paper) where both are numbers and the ratio is
// defined, 0 where they are equal.
func logRatio(model, paper any) string {
	m, mok := model.(float64)
	p, pok := paper.(float64)
	switch {
	case !mok || !pok:
		return "—"
	case m == p:
		return "+0.000"
	case m <= 0 || p <= 0:
		return "—"
	}
	return fmt.Sprintf("%+.3f", math.Log(m/p))
}
