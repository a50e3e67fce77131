package core

import (
	"fmt"
	"strings"

	"gpucmp/internal/bench"
	"gpucmp/internal/compiler"
)

// Step enumerates the eight stages of the GPU-application development flow
// of Section IV-C (Fig. 9). A comparison between a CUDA and an OpenCL
// application is "fair" only when the configuration of every step matches.
type Step int

const (
	StepProblem Step = iota
	StepAlgorithm
	StepImplementation
	StepNativeOptimisation
	StepFrontEndCompile
	StepBackEndCompile
	StepConfiguration
	StepHardware

	NumSteps
)

// String names the step as the paper does.
func (s Step) String() string {
	switch s {
	case StepProblem:
		return "1. problem description"
	case StepAlgorithm:
		return "2. algorithm translation"
	case StepImplementation:
		return "3. implementation"
	case StepNativeOptimisation:
		return "4. native kernel optimisations"
	case StepFrontEndCompile:
		return "5. first-stage compilation"
	case StepBackEndCompile:
		return "6. second-stage compilation"
	case StepConfiguration:
		return "7. program configuration"
	case StepHardware:
		return "8. running on the hardware"
	default:
		return fmt.Sprintf("step(%d)", int(s))
	}
}

// Role tells who is responsible for a step (Fig. 9 groups them).
type Role int

const (
	RoleProgrammer Role = iota
	RoleCompiler
	RoleUser
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleProgrammer:
		return "programmer"
	case RoleCompiler:
		return "compiler"
	default:
		return "user"
	}
}

// RoleOf maps each step onto its responsible party: programmers own steps
// 1-4, compilers steps 5-6, users steps 7-8.
func RoleOf(s Step) Role {
	switch {
	case s <= StepNativeOptimisation:
		return RoleProgrammer
	case s <= StepBackEndCompile:
		return RoleCompiler
	default:
		return RoleUser
	}
}

// Setup describes one application's configuration at every step.
type Setup struct {
	Toolchain string // "cuda" or "opencl"

	Problem       string // step 1
	Algorithm     string // step 2
	APIStyle      string // step 3: host API + timer discipline
	Optimisation  bench.Config
	FrontEnd      string   // step 5: NVOPENCC vs the OpenCL front-end
	BackEnd       string   // step 6: PTXAS for both
	BackEndPasses []string // step 6: the back-end pass pipeline, in order
	ProblemScale  int      // step 7: problem parameters
	WorkGroupSize int      // step 7: algorithmic parameters
	Device        string   // step 8
}

// DescribeSetup builds a Setup for one toolchain's native benchmark run.
func DescribeSetup(toolchain, benchmark, device string, cfg bench.Config, wgSize int) Setup {
	fe := "nvopencc"
	if toolchain != "cuda" {
		fe = "opencl-fe"
	}
	// The paper considers two implementations "the same" when they use
	// similar APIs to access the same hardware resources and the same
	// timers; both of our host programs do, so step 3 gets a common label.
	api := "device-buffers+kernel-launch+event-timers"
	return Setup{
		Toolchain:     toolchain,
		Problem:       benchmark,
		Algorithm:     benchmark + "-reference-algorithm",
		APIStyle:      api,
		Optimisation:  cfg,
		FrontEnd:      fe,
		BackEnd:       "ptxas",
		BackEndPasses: compiler.DefaultPassNames(),
		ProblemScale:  cfg.Scale,
		WorkGroupSize: wgSize,
		Device:        device,
	}
}

// Mismatch records one step on which two setups differ.
type Mismatch struct {
	Step  Step
	Left  string
	Right string
	Role  Role
}

// FairnessReport is the result of auditing two setups against the
// eight-step definition.
type FairnessReport struct {
	Left, Right Setup
	Mismatches  []Mismatch
}

// Fair reports whether all eight steps match.
func (r *FairnessReport) Fair() bool { return len(r.Mismatches) == 0 }

// String renders the audit.
func (r *FairnessReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fairness audit: %s vs %s\n", r.Left.Toolchain, r.Right.Toolchain)
	if r.Fair() {
		b.WriteString("  FAIR: all eight steps match; a performance gap reflects the programming models themselves\n")
		return b.String()
	}
	for _, m := range r.Mismatches {
		fmt.Fprintf(&b, "  UNFAIR at %s (%s): %q vs %q\n", m.Step, m.Role, m.Left, m.Right)
	}
	return b.String()
}

func optString(c bench.Config) string {
	return fmt.Sprintf("texture=%v constant=%v unrollA=%v unrollB=%v vectorSPMV=%v",
		c.UseTexture, c.UseConstant, c.UnrollA, c.UnrollB, c.VectorSPMV)
}

// Audit compares two setups step by step. Step 5 (the front-end compiler)
// necessarily differs between CUDA and OpenCL — the paper treats that as
// part of the platform, so it is reported but attributed to the compiler
// role rather than the programmer.
func Audit(left, right Setup) *FairnessReport {
	r := &FairnessReport{Left: left, Right: right}
	add := func(s Step, l, rr string) {
		if l != rr {
			r.Mismatches = append(r.Mismatches, Mismatch{Step: s, Left: l, Right: rr, Role: RoleOf(s)})
		}
	}
	add(StepProblem, left.Problem, right.Problem)
	add(StepAlgorithm, left.Algorithm, right.Algorithm)
	add(StepImplementation, left.APIStyle, right.APIStyle)
	add(StepNativeOptimisation, optString(left.Optimisation), optString(right.Optimisation))
	add(StepFrontEndCompile, left.FrontEnd, right.FrontEnd)
	// Step 6 covers both the back-end's identity and its pass pipeline: a
	// comparison where one side skipped, say, mad-fuse is unfair even
	// though both sides nominally ran "ptxas".
	add(StepBackEndCompile,
		fmt.Sprintf("%s[%s]", left.BackEnd, strings.Join(left.BackEndPasses, ",")),
		fmt.Sprintf("%s[%s]", right.BackEnd, strings.Join(right.BackEndPasses, ",")))
	add(StepConfiguration,
		fmt.Sprintf("scale=%d wg=%d", left.ProblemScale, left.WorkGroupSize),
		fmt.Sprintf("scale=%d wg=%d", right.ProblemScale, right.WorkGroupSize))
	add(StepHardware, left.Device, right.Device)
	return r
}

// ProgrammerFair reports whether every programmer-controlled step (1-4)
// matches: the paper's practical criterion, since steps 3 and 5 differ by
// definition when the APIs differ.
func (r *FairnessReport) ProgrammerFair() bool {
	for _, m := range r.Mismatches {
		if m.Role == RoleProgrammer {
			return false
		}
	}
	return true
}
