package core

import (
	"fmt"
	"strings"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/compiler"
	"gpucmp/internal/ptx"
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

// GapClosingStudy runs the Section-V experiment on one device: starting
// from the native OpenCL front-end, port each missing NVOPENCC
// optimisation across (compiler.GapKnobs order), re-measuring the FFT
// forward kernel after every step, until the personality generates the
// same code as NVOPENCC and the PR lands inside the similarity band.
func GapClosingStudy(a *arch.Device) (*GapClosingReport, error) {
	fft, err := bench.SpecByName("FFT")
	if err != nil {
		return nil, err
	}
	// seconds runs FFT under tc at scale 2 — a 128 batch of 512-point
	// signals on 64-thread work-groups, the shape of the paper's Table V
	// analysis — and returns the forward kernel's seconds and compiler
	// report.
	seconds := func(tc bench.Toolchain) (float64, bench.KernelReport, error) {
		d, err := tc.Open(a)
		if err != nil {
			return 0, bench.KernelReport{}, err
		}
		res, err := fft.Run(d, bench.Config{Scale: 2})
		if err == nil {
			err = res.Err
		}
		if err != nil {
			return 0, bench.KernelReport{}, err
		}
		return res.KernelSeconds, res.Kernels[0], nil
	}
	cuda, _, err := seconds(bench.CUDA())
	if err != nil {
		return nil, err
	}
	base, _, err := seconds(bench.OpenCL())
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
	cum := bench.OpenCL()
	for _, knob := range compiler.GapKnobs() {
		knob.Apply(&cum.Personality)
		sec, kr, err := seconds(cum)
		if err != nil {
			return nil, fmt.Errorf("core: ablation step %q: %w", knob.Name, err)
		}
		solo := bench.OpenCL()
		knob.Apply(&solo.Personality)
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
			PassStats:   kr.PassStats,
			Remarks:     ptx.RemarkTotal(kr.Remarks),
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
