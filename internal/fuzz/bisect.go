package fuzz

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"gpucmp/internal/arch"
	"gpucmp/internal/compiler"
	"gpucmp/internal/sim"
)

// This file turns a differential-fuzz divergence into a named culprit. The
// compiler is a pipeline of individually removable parts — front-end
// features (compiler.FeatureKnobs) and back-end passes (the Pipeline) — so
// once the oracle finds a miscompiling program, we can re-run it with each
// part disabled in turn: a part whose removal makes the divergence vanish
// is a prime suspect. This is delta debugging at the granularity the
// pass-pipeline refactor made addressable.

// Suspect names one compiler component implicated in a divergence.
type Suspect struct {
	Kind        string `json:"kind"` // "pass" (back-end) or "feature" (front-end)
	Name        string `json:"name"`
	Description string `json:"description"`
}

func (s Suspect) String() string {
	return fmt.Sprintf("%s %q (%s)", s.Kind, s.Name, s.Description)
}

// BisectReport is the outcome of re-running a diverging program with each
// compiler component disabled in turn.
type BisectReport struct {
	Seed      uint64 `json:"seed"`
	Toolchain string `json:"toolchain"`
	Device    string `json:"device"`

	// Reproduced is false when the baseline configuration no longer
	// diverges (flaky report or environment drift); no bisection happens.
	Reproduced bool `json:"reproduced"`

	// Suspects lists every component whose removal made the program agree
	// with the reference again, back-end passes first.
	Suspects []Suspect `json:"suspects,omitempty"`

	// Inconclusive lists components whose removal made the program
	// unrunnable (e.g. disabling an optimisation pushed the kernel over a
	// device resource limit), so they can be neither cleared nor blamed.
	Inconclusive []string `json:"inconclusive,omitempty"`

	// Trials counts the compile+execute experiments performed.
	Trials int `json:"trials"`
}

// String renders the report for kfuzz output.
func (r *BisectReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bisect seed %d (%s on %s): ", r.Seed, r.Toolchain, r.Device)
	switch {
	case !r.Reproduced:
		b.WriteString("divergence did not reproduce under the baseline config\n")
	case len(r.Suspects) == 0:
		fmt.Fprintf(&b, "no single component clears the divergence (%d trials); suspect an interaction or the lowering core\n", r.Trials)
	default:
		fmt.Fprintf(&b, "%d suspect(s) in %d trials\n", len(r.Suspects), r.Trials)
		for _, s := range r.Suspects {
			fmt.Fprintf(&b, "  removing %s fixes the output\n", s)
		}
	}
	for _, inc := range r.Inconclusive {
		fmt.Fprintf(&b, "  inconclusive: %s\n", inc)
	}
	return b.String()
}

// diverges compiles the program under cfg, runs it on the device and
// reports whether the output disagrees with want. Resource-limit aborts
// surface as (false, sim.ErrOutOfResources).
func diverges(p *Program, cfg compiler.Config, a *arch.Device, want []uint32) (bool, error) {
	pk, err := compiler.CompileWithConfig(p.Kernel, cfg)
	if err != nil {
		return false, err
	}
	got, _, err := Execute(p, pk, a)
	if err != nil {
		return false, err
	}
	for i := range want {
		if got[i] != want[i] {
			return true, nil
		}
	}
	return false, nil
}

// Bisect re-runs a diverging program with each compiler component disabled
// in turn and reports which removals clear the divergence. cfg is the
// configuration that diverged: its Personality is the suspect front-end and
// its Passes (nil = default) the suspect back-end pipeline.
func Bisect(p *Program, cfg compiler.Config, a *arch.Device) (*BisectReport, error) {
	want, err := Reference(p)
	if err != nil {
		return nil, err
	}
	rep := &BisectReport{Seed: p.Seed, Toolchain: cfg.Personality.Name, Device: a.Name}

	baseline := cfg
	bad, err := diverges(p, baseline, a, want)
	rep.Trials++
	if err != nil {
		return nil, fmt.Errorf("fuzz: bisect seed %d: baseline: %w", p.Seed, err)
	}
	if !bad {
		return rep, nil
	}
	rep.Reproduced = true

	passes := cfg.Passes
	if passes == nil {
		passes = compiler.DefaultPasses()
	}

	// Back-end passes: drop one at a time.
	for _, name := range compiler.PassNames(passes) {
		trial := cfg
		trial.Passes = compiler.WithoutPass(passes, name)
		bad, err := diverges(p, trial, a, want)
		rep.Trials++
		if err != nil {
			if errors.Is(err, sim.ErrOutOfResources) {
				rep.Inconclusive = append(rep.Inconclusive,
					fmt.Sprintf("pass %q: removal made the kernel unrunnable: %v", name, err))
				continue
			}
			return nil, fmt.Errorf("fuzz: bisect seed %d: without pass %q: %w", p.Seed, name, err)
		}
		if !bad {
			desc := ""
			for _, ps := range passes {
				if ps.Name == name {
					desc = ps.Description
				}
			}
			rep.Suspects = append(rep.Suspects, Suspect{Kind: "pass", Name: name, Description: desc})
		}
	}

	// Front-end features: disable one at a time.
	for _, kn := range compiler.FeatureKnobs() {
		trial := cfg
		pers := cfg.Personality
		kn.Apply(&pers)
		if pers.Canonical() == cfg.Personality.Canonical() {
			continue // knob is a no-op for this personality; nothing to learn
		}
		trial.Personality = pers
		bad, err := diverges(p, trial, a, want)
		rep.Trials++
		if err != nil {
			if errors.Is(err, sim.ErrOutOfResources) {
				rep.Inconclusive = append(rep.Inconclusive,
					fmt.Sprintf("feature %q: disabling made the kernel unrunnable: %v", kn.Name, err))
				continue
			}
			return nil, fmt.Errorf("fuzz: bisect seed %d: without feature %q: %w", p.Seed, kn.Name, err)
		}
		if !bad {
			rep.Suspects = append(rep.Suspects, Suspect{Kind: "feature", Name: kn.Name, Description: kn.Description})
		}
	}
	return rep, nil
}

// BisectDivergence is the kfuzz entry point: it reconstructs the config a
// Divergence was produced under (the named toolchain with the default
// pipeline) and bisects on the named device.
func BisectDivergence(p *Program, d *Divergence) (*BisectReport, error) {
	tcs := Toolchains()
	i := slices.IndexFunc(tcs, func(pers compiler.Personality) bool { return pers.Name == d.Toolchain })
	if i < 0 {
		return nil, fmt.Errorf("fuzz: bisect: unknown toolchain %q", d.Toolchain)
	}
	a, err := arch.Resolve(d.Device)
	if err != nil {
		return nil, fmt.Errorf("fuzz: bisect: %w", err)
	}
	return Bisect(p, compiler.Config{Personality: tcs[i]}, a)
}
