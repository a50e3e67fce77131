package core

import (
	"fmt"
	"strings"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/compiler"
	"gpucmp/internal/pattern"
	"gpucmp/internal/perfmodel"
	"gpucmp/internal/ptx"
	"gpucmp/internal/sim"
	"gpucmp/internal/workload"
)

// This file is the pass-level ablation API behind the paper's Section-V
// argument: the CUDA-vs-OpenCL gap on compiler-bound kernels is the sum of
// individually portable front-end optimisations. Each missing optimisation
// is a named compiler.Knob; GapClosingStudy applies them to the OpenCL
// personality one at a time, re-measures the FFT forward kernel after each
// step, and reports how much of the gap each knob closes — the experiment
// the paper runs by hand, as a reproducible API.

// AblationStep is one row of the gap-closing experiment: the state of the
// comparison after cumulatively applying knobs up to and including this one.
type AblationStep struct {
	Knob        string  `json:"knob"`
	Description string  `json:"description"`
	Seconds     float64 `json:"seconds"`      // OpenCL kernel seconds, knobs 0..i applied
	PR          float64 `json:"pr"`           // Eq. (1) vs the CUDA build
	ClosedShare float64 `json:"closed_share"` // fraction of the native gap closed so far
	// SoloSeconds isolates the knob: base personality plus only this knob.
	SoloSeconds float64 `json:"solo_seconds"`

	// PassStats is the back-end pipeline report for this step's compile,
	// and Remarks how many remarks it fired in all (the sum of their
	// counts) — the observability story for why the number moved.
	PassStats []ptx.PassStat `json:"pass_stats"`
	Remarks   int            `json:"remarks"`
}

// GapClosingReport is the full Section-V reproduction on one device.
type GapClosingReport struct {
	Device      string         `json:"device"`
	Kernel      string         `json:"kernel"`
	CUDASeconds float64        `json:"cuda_seconds"`
	BaseSeconds float64        `json:"base_seconds"` // unmodified OpenCL front-end
	BasePR      float64        `json:"base_pr"`
	Steps       []AblationStep `json:"steps"`
	FinalPR     float64        `json:"final_pr"`
	Closed      bool           `json:"closed"` // FinalPR inside the similarity band
}

// String renders the study as the step-by-step table `paper fair` prints.
func (r *GapClosingReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pass-level ablation of the %s kernel on %s\n", r.Kernel, r.Device)
	fmt.Fprintf(&b, "  %-24s %12s %8s %8s\n", "ported optimisation", "opencl-us", "PR", "closed")
	fmt.Fprintf(&b, "  %-24s %12.2f %8.3f %7.0f%%\n", "(native front-end)", r.BaseSeconds*1e6, r.BasePR, 0.0)
	for _, s := range r.Steps {
		fmt.Fprintf(&b, "  %-24s %12.2f %8.3f %7.0f%%\n", "+"+s.Knob, s.Seconds*1e6, s.PR, 100*s.ClosedShare)
	}
	fmt.Fprintf(&b, "  %-24s %12.2f %8.3f\n", "(cuda front-end)", r.CUDASeconds*1e6, 1.0)
	if r.Closed {
		fmt.Fprintf(&b, "  gap closed: |1-PR| < 0.1 after porting all %d optimisations\n", len(r.Steps))
	} else {
		fmt.Fprintf(&b, "  residual gap after all knobs: PR=%.3f\n", r.FinalPR)
	}
	return b.String()
}

// ablationLaunch describes the fixed FFT launch the study times: a 128
// batch of 512-point signals on 64-thread work-groups, the shape used by
// the paper's Table V analysis of the forward kernel.
const (
	ablationBatch  = 128
	ablationPoints = 512
	ablationBlock  = 64
)

// GapClosingStudy runs the Section-V experiment on one device: starting
// from the native OpenCL front-end, port each missing NVOPENCC
// optimisation across (compiler.GapKnobs order), re-measuring the FFT
// forward kernel after every step, until the personality generates the
// same code as NVOPENCC and the PR lands inside the similarity band.
func GapClosingStudy(a *arch.Device) (*GapClosingReport, error) {
	re, im := workload.SignalBatch(ablationBatch, ablationPoints, 17)
	l, in, err := pattern.OneLaunch(bench.FFTKernel(), ablationBatch, ablationBlock, map[string][]uint32{
		"inRe": bench.F32Words(re), "inIm": bench.F32Words(im),
		"outRe": make([]uint32, len(re)), "outIm": make([]uint32, len(im)),
	}, nil, "outRe")
	if err != nil {
		return nil, err
	}
	// seconds compiles the kernel with pers and prices one launch on a
	// with the toolchain's performance model.
	seconds := func(pers compiler.Personality) (float64, *ptx.Kernel, error) {
		pk, err := compiler.CompileWithConfig(l.Kernels[0], compiler.Config{Personality: pers})
		if err != nil {
			return 0, nil, err
		}
		dev, err := sim.NewDevice(a)
		if err != nil {
			return 0, nil, err
		}
		_, traces, err := pattern.RunDevice(l, in, dev, []*ptx.Kernel{pk})
		if err != nil {
			return 0, nil, err
		}
		return perfmodel.KernelTime(a, perfmodel.ToolchainFor(pers.Name), traces[0]).Total, pk, nil
	}
	cuda, _, err := seconds(compiler.CUDA())
	if err != nil {
		return nil, err
	}
	base, _, err := seconds(compiler.OpenCL())
	if err != nil {
		return nil, err
	}
	rep := &GapClosingReport{
		Device:      a.Name,
		Kernel:      "FFT-forward",
		CUDASeconds: cuda,
		BaseSeconds: base,
		BasePR:      PR(base, cuda, true),
	}
	cum := compiler.OpenCL()
	for _, knob := range compiler.GapKnobs() {
		knob.Apply(&cum)
		sec, pk, err := seconds(cum)
		if err != nil {
			return nil, fmt.Errorf("core: ablation step %q: %w", knob.Name, err)
		}
		solo := compiler.OpenCL()
		knob.Apply(&solo)
		soloSec, _, err := seconds(solo)
		if err != nil {
			return nil, fmt.Errorf("core: solo ablation %q: %w", knob.Name, err)
		}
		step := AblationStep{
			Knob:        knob.Name,
			Description: knob.Description,
			Seconds:     sec,
			PR:          PR(sec, cuda, true),
			SoloSeconds: soloSec,
			PassStats:   pk.PassStats,
			Remarks:     ptx.RemarkTotal(pk.Remarks),
		}
		if base != cuda {
			step.ClosedShare = (base - sec) / (base - cuda)
		}
		rep.Steps = append(rep.Steps, step)
	}
	if n := len(rep.Steps); n > 0 {
		rep.FinalPR = rep.Steps[n-1].PR
	} else {
		rep.FinalPR = rep.BasePR
	}
	rep.Closed = Similar(rep.FinalPR)
	return rep, nil
}
