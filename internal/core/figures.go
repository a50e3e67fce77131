package core

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/compiler"
	"gpucmp/internal/ptx"
	"gpucmp/internal/stats"
)

// Figure is one artifact of the paper's evaluation: Figs. 1–8 and Tables V
// and VI. GET /figures/{id} serves what Study returns as JSON and
// cmd/paper prints it with Print; both look it up with FigureByID.
type Figure struct {
	ID    string
	Title string
	// Devices returns the devices the paper ran the figure on. It returns
	// nil for Table V, a compile census with no device and no problem size.
	Devices func() []*arch.Device
	// Study regenerates the figure's data on devices, every cell through run.
	Study func(run Runner, devices []*arch.Device, scale int) (any, error)
	// Print regenerates the figure as Study does and writes it as text
	// tables. verbose adds Table V's two PTX listings.
	Print func(w io.Writer, run Runner, devices []*arch.Device, scale int, verbose bool) error
}

// figures is the paper's evaluation in the paper's order.
var figures = []Figure{
	figure("fig1", "Fig. 1: achieved peak memory bandwidth", nvidia, perDevice(PeakBandwidth), printFig1),
	figure("fig2", "Fig. 2: achieved peak FLOPS", nvidia, perDevice(PeakFlops), printFig2),
	figure("fig3", "Fig. 3: PR of the real-world benchmarks, native implementations", nvidia, byDevice(NativePRSeries), printFig3),
	figure("fig4", "Fig. 4: texture-memory impact on the CUDA MD and SPMV", nvidia, flatPerDevice(TextureStudy), printFig4),
	figure("fig5", "Fig. 5: PR of MD and SPMV with texture memory removed", nvidia, byDevice(TexturePRStudy), printFig5),
	figure("fig6", "Fig. 6: FDTD pragma-unroll impact, CUDA", nvidia, perDevice(UnrollStudyCUDA), printFig6),
	figure("fig7", "Fig. 7: FDTD under matching unroll placements", nvidia, byDevice(UnrollCombos), printFig7),
	figure("fig8", "Fig. 8: Sobel constant-memory impact", nvidia, perDevice(ConstantStudy), printFig8),
	figure("tableV", "Table V: PTX instruction census of the FFT forward kernel", noDevices, ptxCensusStudy, printTableV),
	figure("tableVI", "Table VI: OpenCL portability across the non-NVIDIA devices", nonNVIDIA, flatPerDevice(PortabilityStudy), printTableVI),
}

// FigureByID returns the figure with the given id.
func FigureByID(id string) (Figure, bool) {
	for _, f := range figures {
		if f.ID == id {
			return f, true
		}
	}
	return Figure{}, false
}

// FigureIDs lists every figure's id in the paper's order.
func FigureIDs() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.ID
	}
	return ids
}

// nvidia are the testbeds of Figs. 1–8, which need the CUDA toolchain.
func nvidia() []*arch.Device { return []*arch.Device{arch.GTX280(), arch.GTX480()} }

// nonNVIDIA are the devices of Table VI, which only OpenCL reaches.
func nonNVIDIA() []*arch.Device {
	return []*arch.Device{arch.HD5870(), arch.Intel920(), arch.CellBE()}
}

func noDevices() []*arch.Device { return nil }

// regen is one regeneration of a figure.
type regen struct {
	run     Runner
	devices []*arch.Device
	scale   int
	verbose bool
}

// figure builds a table entry from a study and the text it prints as.
func figure[T any](id, title string, devices func() []*arch.Device,
	study func(regen) (T, error), text func(io.Writer, T, regen) error) Figure {
	return Figure{
		ID: id, Title: title, Devices: devices,
		Study: func(run Runner, devices []*arch.Device, scale int) (any, error) {
			return study(regen{run: run, devices: devices, scale: scale})
		},
		Print: func(w io.Writer, run Runner, devices []*arch.Device, scale int, verbose bool) error {
			g := regen{run: run, devices: devices, scale: scale, verbose: verbose}
			data, err := study(g)
			if err != nil {
				return err
			}
			return text(w, data, g)
		},
	}
}

// perDevice is a study whose data lists one result per device.
func perDevice[T any](study func(Runner, *arch.Device, int) (T, error)) func(regen) ([]T, error) {
	return func(g regen) ([]T, error) {
		out := make([]T, 0, len(g.devices))
		for _, a := range g.devices {
			v, err := study(g.run, a, g.scale)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
}

// flatPerDevice is a study whose data lists every device's results in
// device order.
func flatPerDevice[T any](study func(Runner, *arch.Device, int) ([]T, error)) func(regen) ([]T, error) {
	return func(g regen) ([]T, error) {
		per, err := perDevice(study)(g)
		return slices.Concat(per...), err
	}
}

// byDevice is a study whose data maps each device name to its results.
func byDevice[T any](study func(Runner, *arch.Device, int) (T, error)) func(regen) (map[string]T, error) {
	return func(g regen) (map[string]T, error) {
		per, err := perDevice(study)(g)
		if err != nil {
			return nil, err
		}
		out := make(map[string]T, len(per))
		for i, a := range g.devices {
			out[a.Name] = per[i]
		}
		return out, nil
	}
}

// writeTable writes t and, after a blank line, the paper's reference
// lines for it.
func writeTable(w io.Writer, t *stats.Table, reference ...string) error {
	s := t.String()
	if len(reference) > 0 {
		s += "\n" + strings.Join(reference, "\n") + "\n"
	}
	_, err := io.WriteString(w, s)
	return err
}

func printFig1(w io.Writer, rows []PeakResult, _ regen) error {
	t := stats.NewTable("Fig. 1 — peak device-memory bandwidth (GB/s)",
		"device", "theoretical", "CUDA", "OpenCL", "CUDA %TP", "OpenCL %TP", "OpenCL/CUDA")
	for _, r := range rows {
		t.Add(r.Device, r.Theoretical, r.CUDA, r.OpenCL,
			stats.Pct(r.FractionCUDA()), stats.Pct(r.FractionOpenCL()),
			fmt.Sprintf("%.3f", r.OpenCL/r.CUDA))
	}
	return writeTable(w, t)
}

func printFig2(w io.Writer, rows []PeakResult, _ regen) error {
	t := stats.NewTable("Fig. 2 — peak floating-point throughput (GFlops/s)",
		"device", "theoretical", "CUDA", "OpenCL", "CUDA %TP", "OpenCL %TP")
	for _, r := range rows {
		t.Add(r.Device, r.Theoretical, r.CUDA, r.OpenCL,
			stats.Pct(r.FractionCUDA()), stats.Pct(r.FractionOpenCL()))
	}
	return writeTable(w, t,
		"Paper reference: OpenCL reaches 68.6% / 87.7% of TP_BW and ~71.5% / ~97.7%",
		"of TP_FLOPS on GTX280 / GTX480, outrunning CUDA's bandwidth by 8.5% / 2.4%.")
}

func printFig3(w io.Writer, series map[string][]*Comparison, g regen) error {
	for _, a := range g.devices {
		t := stats.NewTable(fmt.Sprintf("Fig. 3 — PerformanceRatio on %s (PR>1: OpenCL faster)", a.Name),
			"benchmark", "metric", "CUDA", "OpenCL", "PR", "verdict")
		var prs []float64
		var bars []stats.Bar
		for _, c := range series[a.Name] {
			verdict := "CUDA faster"
			switch {
			case Similar(c.PR):
				verdict = "similar"
			case c.PR > 1:
				verdict = "OpenCL faster"
			}
			t.Add(c.Benchmark, c.Metric, c.CUDA.Value, c.OpenCL.Value,
				fmt.Sprintf("%.3f", c.PR), verdict)
			prs = append(prs, c.PR)
			bars = append(bars, stats.Bar{Label: c.Benchmark, Value: c.PR})
		}
		fmt.Fprintln(w, t)
		fmt.Fprintln(w, stats.BarChart(
			fmt.Sprintf("PR on %s ('|' marks PR = 1; '#' past it means OpenCL wins)", a.Name),
			bars, 60, 1.0))
		fmt.Fprintf(w, "geometric-mean PR on %s: %.3f\n\n", a.Name, stats.GeoMean(prs))
	}
	return nil
}

func printFig4(w io.Writer, impacts []TextureImpact, _ regen) error {
	t := stats.NewTable("Fig. 4 — CUDA performance with/without texture memory (GFlops/s)",
		"device", "benchmark", "with tex", "without tex", "without/with")
	for _, im := range impacts {
		t.Add(im.Device, im.Benchmark, im.With, im.Without, stats.Pct(im.Ratio()))
	}
	return writeTable(w, t,
		"Paper reference: removal drops MD/SPMV to 87.6%/65.1% on GTX280 and",
		"59.6%/44.3% on GTX480 of the texture-memory performance.")
}

func printFig5(w io.Writer, series map[string][]*Comparison, g regen) error {
	t := stats.NewTable("Fig. 5 — PR after removing texture memory from both implementations",
		"device", "benchmark", "CUDA", "OpenCL", "PR", "verdict")
	for _, a := range g.devices {
		for _, c := range series[a.Name] {
			verdict := "similar"
			if !Similar(c.PR) {
				verdict = "different"
			}
			t.Add(c.Device, c.Benchmark, c.CUDA.Value, c.OpenCL.Value,
				fmt.Sprintf("%.3f", c.PR), verdict)
		}
	}
	return writeTable(w, t, "Paper reference: after removal CUDA and OpenCL show similar performance.")
}

func printFig6(w io.Writer, impacts []UnrollImpact, _ regen) error {
	t := stats.NewTable("Fig. 6 — CUDA FDTD with/without pragma unroll at point a (MPoints/s)",
		"device", "unroll@a,b", "unroll@b only", "without/with")
	for _, u := range impacts {
		t.Add(u.Device, u.With, u.WithoutA, stats.Pct(u.Ratio()))
	}
	return writeTable(w, t, "Paper reference: without the pragma CUDA drops to 85.1% / 82.6% on GTX280 / GTX480.")
}

func printFig7(w io.Writer, combos map[string][]UnrollCombo, g regen) error {
	t := stats.NewTable("Fig. 7 — FDTD under matching unroll-point placements (MPoints/s)",
		"device", "placement", "CUDA", "OpenCL", "PR")
	for _, a := range g.devices {
		for _, c := range combos[a.Name] {
			t.Add(c.Device, c.Label, c.CUDA, c.OpenCL, fmt.Sprintf("%.3f", c.PR))
		}
	}
	return writeTable(w, t,
		"Paper reference: with the pragma only at b the two are similar (OpenCL +15.1%",
		"on GTX280); unrolling point a in OpenCL degrades it to 48.3% / 66.1% of CUDA.")
}

func printFig8(w io.Writer, impacts []ConstantImpact, _ regen) error {
	t := stats.NewTable("Fig. 8 — Sobel kernel time with/without constant memory",
		"device", "with const (s)", "without const (s)", "const speedup")
	for _, c := range impacts {
		t.Add(c.Device, fmt.Sprintf("%.6f", c.WithConst), fmt.Sprintf("%.6f", c.WithoutConst),
			fmt.Sprintf("%.2fx", c.Speedup()))
	}
	return writeTable(w, t,
		"Paper reference: on GTX280 the kernel time with constant memory drops to a",
		"quarter of the global-memory version; on GTX480 there are few changes.")
}

// ptxCensus is Table V's data: each front-end's instruction rows and the
// side-by-side report.
type ptxCensus struct {
	CUDA   []statRow `json:"cuda"`
	OpenCL []statRow `json:"opencl"`
	Report string    `json:"report"`
}

// statRow is a JSON-friendly ptx.StatRow (ptx.Stats itself keys a map by
// struct, which encoding/json cannot marshal).
type statRow struct {
	Instruction string `json:"instruction"`
	Class       string `json:"class"`
	Count       int64  `json:"count"`
}

func statRows(s *ptx.Stats) []statRow {
	rows := s.Rows()
	out := make([]statRow, 0, len(rows)+1)
	for _, r := range rows {
		out = append(out, statRow{Instruction: r.Key.String(), Class: r.Class.String(), Count: r.Count})
	}
	return append(out, statRow{Instruction: "TOTAL", Count: s.Total})
}

func ptxCensusStudy(regen) (ptxCensus, error) {
	cu, cl, report, err := PTXStudy()
	if err != nil {
		return ptxCensus{}, err
	}
	return ptxCensus{CUDA: statRows(cu), OpenCL: statRows(cl), Report: report}, nil
}

func printTableV(w io.Writer, c ptxCensus, g regen) error {
	fmt.Fprintln(w, "Table V — PTX instruction statistics for the FFT forward kernel")
	fmt.Fprintln(w)
	fmt.Fprintln(w, c.Report)
	fmt.Fprintln(w, "Paper reference: the OpenCL front-end emits far more logic/shift and")
	fmt.Fprintln(w, "flow-control instructions and fetches arguments through ld.const, while")
	fmt.Fprintln(w, "NVOPENCC is mov-heavy; the time-consuming ld.global/st.global and bar")
	fmt.Fprintln(w, "counts are the same on both sides.")
	if !g.verbose {
		return nil
	}
	k := bench.FFTKernel()
	for _, p := range []compiler.Personality{compiler.CUDA(), compiler.OpenCL()} {
		pk, err := compiler.Compile(k, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n===== %s =====\n%s\n", p.Name, pk.Disassemble())
	}
	return nil
}

func printTableVI(w io.Writer, cells []PortabilityCell, g regen) error {
	// Rows are devices and columns benchmarks, the paper's layout;
	// PortabilityStudy gives each device one cell per benchmark, in order.
	benches := Fig3Benchmarks()
	headers := []string{"device"}
	for _, s := range benches {
		headers = append(headers, s.Name)
	}
	tb := stats.NewTable("Table VI — OpenCL performance on prevailing platforms (units per Table II)", headers...)
	for i := 0; i+len(benches) <= len(cells); i += len(benches) {
		row := []any{cells[i].Device}
		for _, c := range cells[i : i+len(benches)] {
			if c.Status == "OK" {
				row = append(row, fmt.Sprintf("%.4g", c.Value))
			} else {
				row = append(row, c.Status)
			}
		}
		tb.Add(row...)
	}
	fmt.Fprintln(w, tb)
	fmt.Fprintln(w, "Paper reference: RdxS fails ('FL') on the 64-wide wavefront devices because")
	fmt.Fprintln(w, "its implementation bakes in warp-size 32; FFT, DXTC, RdxS and STNW abort")
	fmt.Fprintln(w, "('ABT', CL_OUT_OF_RESOURCES) on the Cell/BE; everything else runs.")
	fmt.Fprintln(w)

	// Performance portability: the same code, normalised per device peak.
	effs, err := EfficiencyStudy(g.run, g.scale)
	if err != nil {
		return err
	}
	et := stats.NewTable("performance portability (achieved fraction of each device's peak, OpenCL)",
		"benchmark", "device", "%peak", "status")
	var names []string
	for _, e := range effs {
		et.Add(e.Benchmark, e.Device, stats.Pct(e.Fraction), e.Status)
		if !slices.Contains(names, e.Benchmark) {
			names = append(names, e.Benchmark)
		}
	}
	fmt.Fprintln(w, et)
	st := stats.NewTable("portability score (geomean of fractions / best fraction; 1.0 = fully portable)",
		"benchmark", "score")
	for _, n := range names {
		st.Add(n, fmt.Sprintf("%.3f", PortabilityScore(effs, n)))
	}
	fmt.Fprintln(w, st)
	fmt.Fprintln(w, "Low scores are the performance-portability gap the paper's proposed")
	fmt.Fprintln(w, "auto-tuner (cmd/autotune) exists to close.")
	return nil
}
