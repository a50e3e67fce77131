package core

import (
	"fmt"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/compiler"
	"gpucmp/internal/ptx"
)

// PeakResult is one bar of Fig. 1 / Fig. 2.
type PeakResult struct {
	Device      string  `json:"device"`
	Theoretical float64 `json:"theoretical"`
	CUDA        float64 `json:"cuda"`
	OpenCL      float64 `json:"opencl"`
}

// FractionCUDA returns achieved/theoretical for the CUDA bar.
func (p PeakResult) FractionCUDA() float64 { return p.CUDA / p.Theoretical }

// FractionOpenCL returns achieved/theoretical for the OpenCL bar.
func (p PeakResult) FractionOpenCL() float64 { return p.OpenCL / p.Theoretical }

// peak runs one synthetic probe with both toolchains: a device's Fig. 1
// or Fig. 2 bars against its theoretical peak.
func peak(run Runner, a *arch.Device, probe string, theoretical float64, scale int) (PeakResult, error) {
	spec, _ := bench.SpecByName(probe)
	cfg := bench.Config{Scale: scale}
	cu, err := run(a, "cuda", spec, cfg)
	if err != nil {
		return PeakResult{}, err
	}
	cl, err := run(a, "opencl", spec, cfg)
	if err != nil {
		return PeakResult{}, err
	}
	return PeakResult{Device: a.Name, Theoretical: theoretical, CUDA: cu.Value, OpenCL: cl.Value}, nil
}

// PeakBandwidth regenerates one device's Fig. 1 bars with the
// DeviceMemory probe.
func PeakBandwidth(run Runner, a *arch.Device, scale int) (PeakResult, error) {
	return peak(run, a, "DeviceMemory", a.TheoreticalPeakBandwidth(), scale)
}

// PeakFlops regenerates one device's Fig. 2 bars with the MaxFlops probe.
func PeakFlops(run Runner, a *arch.Device, scale int) (PeakResult, error) {
	return peak(run, a, "MaxFlops", a.TheoreticalPeakFLOPS(), scale)
}

// Fig3Benchmarks lists the real-world benchmarks of the PR comparison
// (Table II order, excluding the synthetic probes).
func Fig3Benchmarks() []bench.Spec {
	var out []bench.Spec
	for _, s := range bench.Registry() {
		if s.Name == "MaxFlops" || s.Name == "DeviceMemory" {
			continue
		}
		out = append(out, s)
	}
	return out
}

// NativePRSeries regenerates Fig. 3: the PR of every real-world benchmark
// with each toolchain's native implementation on the given device.
func NativePRSeries(run Runner, a *arch.Device, scale int) ([]*Comparison, error) {
	var out []*Comparison
	for _, spec := range Fig3Benchmarks() {
		c, err := CompareNative(run, a, spec, scale)
		if err != nil {
			return nil, fmt.Errorf("core: %s on %s: %w", spec.Name, a.Name, err)
		}
		out = append(out, c)
	}
	return out, nil
}

// TextureImpact is one benchmark's Fig. 4 pair: the CUDA implementation
// with and without texture memory.
type TextureImpact struct {
	Benchmark string  `json:"benchmark"`
	Device    string  `json:"device"`
	With      float64 `json:"with"`
	Without   float64 `json:"without"`
}

// Ratio returns without/with — the paper's "performance drops to X%".
func (t TextureImpact) Ratio() float64 { return t.Without / t.With }

// TextureStudy regenerates Fig. 4 for MD and SPMV on one device.
func TextureStudy(run Runner, a *arch.Device, scale int) ([]TextureImpact, error) {
	var out []TextureImpact
	for _, name := range []string{"MD", "SPMV"} {
		spec, _ := bench.SpecByName(name)
		with, err := runCUDA(run, a, spec, bench.Config{Scale: scale, UseTexture: true})
		if err != nil {
			return nil, err
		}
		without, err := runCUDA(run, a, spec, bench.Config{Scale: scale, UseTexture: false})
		if err != nil {
			return nil, err
		}
		out = append(out, TextureImpact{Benchmark: name, Device: a.Name, With: with.Value, Without: without.Value})
	}
	return out, nil
}

// TexturePRStudy regenerates Fig. 5: the PR of MD and SPMV after removing
// texture memory from the CUDA implementation (a fair step-4 comparison).
func TexturePRStudy(run Runner, a *arch.Device, scale int) ([]*Comparison, error) {
	var out []*Comparison
	for _, name := range []string{"MD", "SPMV"} {
		spec, _ := bench.SpecByName(name)
		cfg := bench.Config{Scale: scale, UseTexture: false}
		c, err := Compare(run, a, spec, cfg, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// runCUDA runs one CUDA cell and promotes an aborted result to an error.
func runCUDA(run Runner, a *arch.Device, spec bench.Spec, cfg bench.Config) (*bench.Result, error) {
	r, err := run(a, "cuda", spec, cfg)
	if err != nil {
		return nil, err
	}
	if r.Err != nil {
		return nil, r.Err
	}
	return r, nil
}

// UnrollImpact is Fig. 6: the CUDA FDTD with and without the pragma at
// unroll point a.
type UnrollImpact struct {
	Device   string  `json:"device"`
	With     float64 `json:"with"`      // MPoints/s, pragma at a and b
	WithoutA float64 `json:"without_a"` // pragma only at b
}

// Ratio returns without/with.
func (u UnrollImpact) Ratio() float64 { return u.WithoutA / u.With }

// UnrollStudyCUDA regenerates Fig. 6 on one device.
func UnrollStudyCUDA(run Runner, a *arch.Device, scale int) (UnrollImpact, error) {
	spec, _ := bench.SpecByName("FDTD")
	with, err := runCUDA(run, a, spec, bench.Config{Scale: scale, UnrollA: true, UnrollB: true})
	if err != nil {
		return UnrollImpact{}, err
	}
	without, err := runCUDA(run, a, spec, bench.Config{Scale: scale, UnrollA: false, UnrollB: true})
	if err != nil {
		return UnrollImpact{}, err
	}
	return UnrollImpact{Device: a.Name, With: with.Value, WithoutA: without.Value}, nil
}

// UnrollCombo is one group of Fig. 7: CUDA and OpenCL compiled with the
// same unroll-point placement.
type UnrollCombo struct {
	Label  string  `json:"label"`
	Device string  `json:"device"`
	CUDA   float64 `json:"cuda"`
	OpenCL float64 `json:"opencl"`
	PR     float64 `json:"pr"`
}

// UnrollCombos regenerates Fig. 7: pragma at b only, and pragma at both
// points, for both toolchains.
func UnrollCombos(run Runner, a *arch.Device, scale int) ([]UnrollCombo, error) {
	spec, _ := bench.SpecByName("FDTD")
	combos := []struct {
		label   string
		unrollA bool
	}{
		{"unroll@b", false},
		{"unroll@a,b", true},
	}
	var out []UnrollCombo
	for _, cb := range combos {
		cfg := bench.Config{Scale: scale, UnrollA: cb.unrollA, UnrollB: true}
		c, err := Compare(run, a, spec, cfg, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, UnrollCombo{
			Label: cb.label, Device: a.Name,
			CUDA: c.CUDA.Value, OpenCL: c.OpenCL.Value, PR: c.PR,
		})
	}
	return out, nil
}

// ConstantImpact is Fig. 8: Sobel kernel time with and without constant
// memory on one device.
type ConstantImpact struct {
	Device       string  `json:"device"`
	WithConst    float64 `json:"with_const"`    // seconds
	WithoutConst float64 `json:"without_const"` // seconds
}

// Speedup returns without/with: how much the constant cache buys.
func (c ConstantImpact) Speedup() float64 { return c.WithoutConst / c.WithConst }

// ConstantStudy regenerates Fig. 8 on one device: the same Sobel source
// compiled with the filter in constant versus global memory — the
// controlled comparison of the constant-memory choice itself.
func ConstantStudy(run Runner, a *arch.Device, scale int) (ConstantImpact, error) {
	spec, _ := bench.SpecByName("Sobel")
	with, err := runCUDA(run, a, spec, bench.Config{Scale: scale, UseConstant: true})
	if err != nil {
		return ConstantImpact{}, err
	}
	without, err := runCUDA(run, a, spec, bench.Config{Scale: scale, UseConstant: false})
	if err != nil {
		return ConstantImpact{}, err
	}
	return ConstantImpact{Device: a.Name, WithConst: with.KernelSeconds, WithoutConst: without.KernelSeconds}, nil
}

// PTXStudy regenerates Table V: the static PTX statistics of the FFT
// "forward" kernel under both front-ends.
func PTXStudy() (cuda, opencl *ptx.Stats, report string, err error) {
	k := bench.FFTKernel()
	cu, err := compiler.Compile(k, compiler.CUDA())
	if err != nil {
		return nil, nil, "", err
	}
	cl, err := compiler.Compile(k, compiler.OpenCL())
	if err != nil {
		return nil, nil, "", err
	}
	cs, ls := cu.FrontEndStats, cl.FrontEndStats
	return cs, ls, ptx.CompareTable("CUDA", cs, "OpenCL", ls), nil
}

// PortabilityCell is one entry of Table VI.
type PortabilityCell struct {
	Benchmark string  `json:"benchmark"`
	Device    string  `json:"device"`
	Metric    string  `json:"metric"`
	Value     float64 `json:"value,omitempty"`
	Status    string  `json:"status"` // OK, FL, ABT
}

// PortabilityStudy regenerates one device's row of Table VI: every
// real-world benchmark run through OpenCL with minor modifications only
// (only the device changes; the driver and kernels are the same).
func PortabilityStudy(run Runner, a *arch.Device, scale int) ([]PortabilityCell, error) {
	var out []PortabilityCell
	for _, spec := range Fig3Benchmarks() {
		cfg := bench.NativeConfig("opencl")
		cfg.Scale = scale
		r, err := run(a, "opencl", spec, cfg)
		if err != nil {
			return nil, err
		}
		cell := PortabilityCell{
			Benchmark: spec.Name, Device: a.Name, Metric: spec.Metric, Status: r.Status(),
		}
		if r.Err == nil {
			cell.Value = r.Value
		}
		out = append(out, cell)
	}
	return out, nil
}
