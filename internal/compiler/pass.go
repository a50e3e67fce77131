package compiler

import (
	"fmt"

	"gpucmp/internal/ptx"
)

// Pass is one named unit of the shared second-stage compiler (PTXAS in the
// paper's development flow, step 6). Each pass is individually runnable,
// reports what it did through Counters, and can be left out of a Pipeline
// — which is what turns the paper's Section-V "port the optimisation
// across and re-measure" experiments into an API, and what lets the fuzz
// oracle pin a miscompile to one pass by rerunning with each disabled.
type Pass struct {
	Name        string
	Description string
	// Run transforms the kernel in place and reports its work counters.
	// rem may be nil.
	Run func(k *ptx.Kernel, rem *Remarks) Counters
}

// Counters is the pass-specific work tally a Pass reports; the pipeline
// driver wraps it with before/after instruction and register counts into a
// ptx.PassStat.
type Counters struct {
	Removed   int // instructions deleted
	Rewritten int // operands forwarded / instructions rewritten
	Fused     int // instruction pairs combined
}

// The three back-end passes, in their canonical order.
const (
	PassCopyProp = "copy-prop"
	PassDCE      = "dce"
	PassMadFuse  = "mad-fuse"
)

// CopyPropagationPass forwards register-to-register movs into later uses
// within each basic block.
func CopyPropagationPass() Pass {
	return Pass{
		Name:        PassCopyProp,
		Description: "forward mov sources into later uses within each basic block",
		Run: func(k *ptx.Kernel, rem *Remarks) Counters {
			n := copyPropagate(k)
			if n > 0 {
				rem.Addf(PassCopyProp, "forwarded %d mov source(s) into later uses", n)
			}
			return Counters{Rewritten: n}
		},
	}
}

// DeadCodeEliminationPass removes side-effect-free instructions whose
// results are never read, iterating to a fixpoint.
func DeadCodeEliminationPass() Pass {
	return Pass{
		Name:        PassDCE,
		Description: "remove side-effect-free instructions whose results are never read",
		Run: func(k *ptx.Kernel, rem *Remarks) Counters {
			n := deadCodeEliminate(k)
			if n > 0 {
				rem.Addf(PassDCE, "removed %d dead instruction(s)", n)
			}
			return Counters{Removed: n}
		},
	}
}

// MulAddFusionPass rewrites adjacent mul+add pairs into mad/fma.
func MulAddFusionPass() Pass {
	return Pass{
		Name:        PassMadFuse,
		Description: "fuse adjacent mul+add pairs into a single mad/fma",
		Run: func(k *ptx.Kernel, rem *Remarks) Counters {
			n := fuseMulAdd(k)
			if n > 0 {
				rem.Addf(PassMadFuse, "fused %d mul+add pair(s) into mad/fma", n)
			}
			return Counters{Fused: n, Removed: n}
		},
	}
}

// DefaultPasses returns the standard back-end pipeline in order:
// copy propagation, dead-code elimination, mul+add fusion.
func DefaultPasses() []Pass {
	return []Pass{CopyPropagationPass(), DeadCodeEliminationPass(), MulAddFusionPass()}
}

// DefaultPassNames returns the names of the standard pipeline, in order.
func DefaultPassNames() []string { return PassNames(DefaultPasses()) }

// PassNames extracts the name list of a pipeline.
func PassNames(ps []Pass) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// WithoutPass returns the pipeline minus every pass of the given name.
func WithoutPass(ps []Pass, name string) []Pass {
	out := make([]Pass, 0, len(ps))
	for _, p := range ps {
		if p.Name != name {
			out = append(out, p)
		}
	}
	return out
}

// Pipeline runs an ordered list of passes over one kernel. In Debug mode
// the kernel's structural invariants are re-validated after every pass, so
// a pass that corrupts branch targets or register numbering is caught at
// its own doorstep instead of surfacing as a simulator fault three layers
// later.
type Pipeline struct {
	Passes []Pass
	Debug  bool
	// Observer, when set, receives the full before/after instruction
	// census of every pass (used by `paper passes`). It runs
	// on the compiling goroutine.
	Observer func(pass Pass, before, after *ptx.Stats)
}

// Run executes the pipeline over k, attaching nothing: the per-pass stats
// are returned and the caller decides where they live (Compile puts them
// on the kernel). The only error source is Debug-mode validation.
func (pl Pipeline) Run(k *ptx.Kernel, rem *Remarks) ([]ptx.PassStat, error) {
	stats := make([]ptx.PassStat, 0, len(pl.Passes))
	for _, p := range pl.Passes {
		var before *ptx.Stats
		if pl.Observer != nil {
			before = k.StaticStats()
		}
		st := ptx.PassStat{
			Pass:         p.Name,
			InstrsBefore: len(k.Instrs),
			RegsBefore:   k.UsedRegs(),
		}
		c := p.Run(k, rem)
		st.InstrsAfter = len(k.Instrs)
		st.RegsAfter = k.UsedRegs()
		st.Removed, st.Rewritten, st.Fused = c.Removed, c.Rewritten, c.Fused
		stats = append(stats, st)
		if pl.Observer != nil {
			pl.Observer(p, before, k.StaticStats())
		}
		if pl.Debug {
			if err := k.Validate(); err != nil {
				return stats, fmt.Errorf("compiler: pass %q broke kernel invariants: %w", p.Name, err)
			}
		}
	}
	return stats, nil
}

// Optimize is the shared second-stage compiler with the default pipeline:
// copy propagation, dead-code elimination, then mul+add fusion into
// mad/fma. Both toolchains run it, mirroring the paper's observation that
// the back-end is common while the front-ends differ. The per-pass stats
// are recorded on the kernel.
func Optimize(k *ptx.Kernel) {
	stats, _ := Pipeline{Passes: DefaultPasses()}.Run(k, nil) // no Debug: cannot error
	k.PassStats = stats
}
