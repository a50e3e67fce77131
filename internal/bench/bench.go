// Package bench implements the paper's sixteen benchmarks (Table II plus
// the two synthetic SHOC probes) on the simulator. Each benchmark is
// written once against the Driver abstraction, and one driver runs every
// toolchain: Toolchain.Open pairs the value's front-end personality and
// cost model (launch overhead, transfer link) with a simulated device. A
// run reports its record of launches and copies and the work its metric
// counts; Spec.Run prices every run from those, and Spec.Price re-prices
// one under another toolchain's costs without simulating it again. A
// run's host side, its generated inputs and the reference its output is
// checked against, depends only on the problem shape and is built once
// per shape (hostData).
// NativeConfig captures the per-toolchain implementation choices the paper
// documents (texture memory in the CUDA MD/SPMV, constant memory in the
// OpenCL Sobel, unroll pragma placement in FDTD).
package bench

import (
	"fmt"
	"slices"

	"gpucmp/internal/arch"
	"gpucmp/internal/kir"
	"gpucmp/internal/perfmodel"
	"gpucmp/internal/ptx"
	"gpucmp/internal/sim"
)

// Buf is a device allocation handle.
type Buf struct {
	Addr uint32
	Size uint32
}

// Module is an opaque compiled-program handle.
type Module interface {
	Kernel(name string) (*ptx.Kernel, error)
}

// Driver abstracts the host runtime so each benchmark is written once. It
// keeps no clock: Record.Price prices what it records.
type Driver interface {
	Toolchain() Toolchain // the stack whose costs price the record
	Arch() *arch.Device
	Alloc(bytes uint32) (Buf, error)
	Write(dst Buf, words []uint32) error
	// Zero writes n zero words to the start of dst, recorded as Write of n
	// words would be.
	Zero(dst Buf, n int) error
	Read(dst []uint32, src Buf) error
	Build(kernels ...*kir.Kernel) (Module, error)
	// Launch runs a kernel on grid x block work-groups (an OpenCL NDRange
	// of global size grid*block and local size block).
	Launch(m Module, kernel string, grid, block sim.Dim3, args ...Arg) error
	// Record returns the launches and copies since the last ResetTimer.
	Record() Record
	ResetTimer()
}

// Arg is a launch argument: either a buffer or a 32-bit scalar.
type Arg struct {
	IsBuf bool
	Buf   Buf
	Val   uint32
}

// B passes a buffer argument.
func B(b Buf) Arg { return Arg{IsBuf: true, Buf: b} }

// V passes a raw 32-bit scalar.
func V(v uint32) Arg { return Arg{Val: v} }

// Result is the outcome of one benchmark run on one driver. It marshals
// to JSON (see json.go): Err is flattened to an "error" string and the
// launch traces are omitted — they are a simulator-internal drill-down,
// not part of the reported result.
type Result struct {
	Benchmark string `json:"benchmark"`
	Toolchain string `json:"toolchain"`
	Device    string `json:"device"`

	Metric string  `json:"metric"`          // unit of Value, per Table II
	Value  float64 `json:"value,omitempty"` // the reported performance number

	KernelSeconds   float64 `json:"kernel_seconds,omitempty"`
	EndToEndSeconds float64 `json:"end_to_end_seconds,omitempty"`
	// TransferSeconds is the host<->device copy time inside EndToEndSeconds.
	TransferSeconds float64 `json:"transfer_seconds,omitempty"`

	// Transfer echoes the device's link parameters so a client can
	// reproduce transfer-inclusive numbers from the compute-only ones.
	Transfer *TransferParams `json:"transfer,omitempty"`

	// Correct is false when the run completed but produced wrong output —
	// the Table VI "FL" state.
	Correct bool `json:"correct"`
	// Work is the quantity a rate metric counts (flops, bytes, elements,
	// pixels or points): pricing divides it by the run's seconds. It is zero
	// for the time-valued benchmarks.
	Work float64 `json:"-"`
	// Err is non-nil when the run aborted — the Table VI "ABT" state.
	Err error `json:"-"`

	// Kernels carries the compiler story for every kernel the run built:
	// per-pass statistics and the remark stream (see KernelReport).
	Kernels []KernelReport `json:"kernels,omitempty"`

	// Record is the run's launches and copies, which Spec.Price re-prices.
	Record `json:"-"`
}

// TransferParams is the per-device host link description echoed in results
// and on GET /devices.
type TransferParams struct {
	PCIeGBps       float64 `json:"pcie_gbps"`
	LatencySeconds float64 `json:"latency_seconds"`
}

// Status summarises the run the way Table VI prints it.
func (r *Result) Status() string {
	switch {
	case r.Err != nil:
		return "ABT"
	case !r.Correct:
		return "FL"
	default:
		return "OK"
	}
}

// Config selects the implementation variant and problem scale. The JSON
// form is the wire format of the gpucmpd POST /run body and part of the
// scheduler's canonical job key.
type Config struct {
	// Scale divides the default problem size (1 = paper-like default,
	// 2 = half-size for fast tests, etc.).
	Scale int `json:"scale,omitempty"`

	// UseTexture places the irregularly-read vector of MD/SPMV in texture
	// memory (the CUDA implementations' native choice, Fig. 4).
	UseTexture bool `json:"use_texture,omitempty"`

	// UseConstant places the Sobel filter in constant memory (the OpenCL
	// implementation's native choice, Fig. 8).
	UseConstant bool `json:"use_constant,omitempty"`

	// UnrollA / UnrollB apply "#pragma unroll" at FDTD's two unroll points
	// (Fig. 6/7).
	UnrollA bool `json:"unroll_a,omitempty"`
	UnrollB bool `json:"unroll_b,omitempty"`

	// VectorSPMV uses the warp-per-row CSR-vector kernel instead of the
	// thread-per-row scalar kernel (the Section V CPU-portability note).
	VectorSPMV bool `json:"vector_spmv,omitempty"`

	// NaiveTranspose skips the shared-memory tile in TranP — slower on
	// GPUs, faster on the implicitly-cached CPU device (the Section V
	// TranP note: 2.411 vs 0.215 GB/s).
	NaiveTranspose bool `json:"naive_transpose,omitempty"`

	// Pattern selects the kernel source of the benchmarks in
	// PatternBenchNames: "" is the benchmark's default source (the
	// canonical lowering for MxM, Reduce and Scan, the hand-written kernel
	// for St2D and Sobel); otherwise the value is a pattern.Schedule mangle
	// (e.g. "b256.c1.u0.f1.r1.t0.k0") selecting the lowering. The mangle is
	// embedded in generated kernel names, so distinct schedules never alias
	// in the compile cache, and it participates in the scheduler's job key.
	Pattern string `json:"pattern,omitempty"`
}

func (c Config) scale(n int) int {
	s := c.Scale
	if s <= 0 {
		s = 1
	}
	v := n / s
	if v < 1 {
		v = 1
	}
	return v
}

// NativeConfig returns the paper's "native", unmodified implementation
// choices for a toolchain: the configurations behind Fig. 3.
func NativeConfig(toolchain string) Config {
	if toolchain == "cuda" {
		return Config{Scale: 1, UseTexture: true, UseConstant: false, UnrollA: true, UnrollB: true}
	}
	return Config{Scale: 1, UseTexture: false, UseConstant: true, UnrollA: false, UnrollB: true}
}

// Spec describes one registered benchmark: its Table II name and metric,
// the clock the metric reads, and the run that produces its traces.
type Spec struct {
	Name   string
	Metric string
	// eventTimer prices the run on the event timer (CL_PROFILING_COMMAND_
	// START to _END), which excludes launch overhead: the SHOC peak probes
	// report that view. Every other benchmark reads kernel seconds.
	eventTimer bool
	run        func(d Driver, cfg Config) *Result
}

// Run runs the benchmark on the driver and prices the result under the
// driver's toolchain.
func (s Spec) Run(d Driver, cfg Config) (*Result, error) {
	res := s.run(d, cfg)
	res.Benchmark, res.Metric = s.Name, s.Metric
	if res.Err == nil {
		s.price(res, d.Arch(), d.Toolchain())
	}
	return res, nil
}

// LowerIsBetter reports whether a metric is time-valued (not a rate in
// perfmodel's metric table), so that a smaller Value is the better result.
func LowerIsBetter(metric string) bool {
	_, rate := perfmodel.RateUnit(metric)
	return !rate
}

// Registry returns the real-world benchmarks in the order of Table II,
// followed by the two synthetic probes.
func Registry() []Spec { return slices.Clone(registry) }

// registry is the one copy of the benchmark table; Registry hands out
// copies and SpecByName scans it in place.
var registry = []Spec{
	{Name: "BFS", Metric: "sec", run: runBFS},
	{Name: "Sobel", Metric: "sec", run: runSobel},
	{Name: "TranP", Metric: "GB/sec", run: runTranP},
	{Name: "Reduce", Metric: "GB/sec", run: runReduce},
	{Name: "FFT", Metric: "GFlops/sec", run: runFFT},
	{Name: "MD", Metric: "GFlops/sec", run: runMD},
	{Name: "SPMV", Metric: "GFlops/sec", run: runSPMV},
	{Name: "St2D", Metric: "sec", run: runSt2D},
	{Name: "DXTC", Metric: "MPixels/sec", run: runDXTC},
	{Name: "RdxS", Metric: "MElements/sec", run: runRdxS},
	{Name: "Scan", Metric: "MElements/sec", run: runScan},
	{Name: "STNW", Metric: "MElements/sec", run: runSTNW},
	{Name: "MxM", Metric: "GFlops/sec", run: runMxM},
	{Name: "FDTD", Metric: "MPoints/sec", run: runFDTD},
	{Name: "MaxFlops", Metric: "GFlops/sec", eventTimer: true, run: runMaxFlops},
	{Name: "DeviceMemory", Metric: "GB/sec", eventTimer: true, run: runDeviceMemory},
}

// SpecByName finds a registered benchmark.
func SpecByName(name string) (Spec, error) {
	for _, s := range registry {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("bench: unknown benchmark %q", name)
}

// result assembles a finished run from the driver: its record, its work
// and whether its output verified. Spec.Run names and prices it.
func result(d Driver, work float64, correct bool) *Result {
	a := d.Arch()
	return &Result{
		Toolchain: d.Toolchain().Name,
		Device:    a.Name,
		Transfer:  &TransferParams{PCIeGBps: a.Transfer.PCIeGBps, LatencySeconds: a.Transfer.LatencyS},
		Correct:   correct,
		Work:      work,
		Kernels:   KernelReports(d),
		Record:    d.Record(),
	}
}

// abort wraps a launch/build failure as an ABT result.
func abort(d Driver, err error) *Result {
	return &Result{Toolchain: d.Toolchain().Name, Device: d.Arch().Name, Err: err}
}

func f32eq(a, b, tol float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	if b > m {
		m = b
	}
	if -b > m {
		m = -b
	}
	return d <= tol+tol*m
}
