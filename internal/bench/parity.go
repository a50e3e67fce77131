package bench

// The pattern parity check for the two benchmarks that keep a hand-written
// kernel beside their pattern program: run St2D's or Sobel's hand kernel
// and its pattern lowering on identical inputs through the full
// compiler+simulator stack, and hand back both raw output buffers for
// bitwise comparison. At the canonical schedule the lowering reproduces
// the hand-written kernel's float association exactly, so the outputs must
// match bit for bit on every device. (MxM, Reduce and Scan have no hand
// kernel: their lowering is their only kernel source.)

import (
	"fmt"

	"gpucmp/internal/arch"
	"gpucmp/internal/workload"
)

// PatternParity runs St2D or Sobel twice on fresh drivers — the
// hand-written kernel and the pattern lowering at cfg.Pattern (canonical
// when empty) — and returns the two raw output buffers. The parity unit is
// a single stencil application (St2D's multi-step ping-pong is the same
// kernel iterated, so step parity implies run parity). The hand Sobel
// kernel keeps its filter where the schedule's ConstCoeff flag puts the
// lowering's, so like is compared with like.
func PatternParity(toolchain string, a *arch.Device, name string, cfg Config) (hand, pat []uint32, err error) {
	l, err := patternLower(name, cfg)
	if err != nil {
		return nil, nil, err
	}
	handCfg := cfg
	handCfg.Pattern = ""
	handCfg.UseConstant = l.Sched.ConstCoeff
	patCfg := cfg
	patCfg.Pattern = l.Sched.Mangle()

	run := func(cfg Config) ([]uint32, error) {
		d, err := NewDriver(toolchain, a)
		if err != nil {
			return nil, err
		}
		w, h := l.Shape.W, l.Shape.H
		var out []float32
		switch name {
		case "St2D":
			out, err = st2dSteps(d, cfg, workload.GrayImage(w, h, 37), w, h, 1)
		case "Sobel":
			out, err = sobelOutput(d, cfg, workload.GrayImage(w, h, 11), w, h)
		default:
			return nil, fmt.Errorf("bench: %s has no hand-written kernel", name)
		}
		return f32Words(out), err
	}
	if hand, err = run(handCfg); err != nil {
		return nil, nil, fmt.Errorf("hand path: %w", err)
	}
	if pat, err = run(patCfg); err != nil {
		return nil, nil, fmt.Errorf("pattern path: %w", err)
	}
	return hand, pat, nil
}
