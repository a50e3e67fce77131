// Package pattern is the algorithmic-skeleton layer over KIR: typed
// map/zip/reduce/scan/stencil combinators with a sequential host evaluator
// as the semantic reference, a lowering pass that turns one (program,
// schedule) pair into concrete KIR kernels and launches, and a rewrite-rule
// catalogue (fusion, shared-memory tiling with tree reduction, loop
// unrolling, thread coarsening, constant-memory coefficient placement)
// expressed as schedule dimensions, in the style of Steuwer et al.
// (arXiv:1502.02389).
//
// The contract that makes autotuning safe is bit-identity: for every legal
// schedule s, executing Lower(p, s) — on the reference executor or on any
// simulated device through either toolchain — produces outputs bitwise
// equal to Eval(p, s). The evaluator is schedule-aware: it replays the
// exact floating-point combination order the lowered kernels perform, and
// both sides evaluate scalar arithmetic through the single shared
// kir.EvalExpr interpreter, so a rewrite rule cannot silently change
// results. Rules that reassociate floats (tree vs sequential reduction)
// therefore change Eval's answer in lockstep with the kernel's, and the
// benchmark layer's tolerance checks remain the arbiter of whether such a
// schedule is acceptable for a float workload.
package pattern

import (
	"fmt"

	"gpucmp/internal/kir"
)

// FnParam is one parameter of an element function.
type FnParam struct {
	Name string
	T    kir.Type
}

// Fn is a pure element function: an expression over its parameters only —
// no loads, no kernel parameters, no work-item builtins. Lowering inlines
// it by substitution; the evaluator runs it through kir.EvalExpr.
type Fn struct {
	Params []FnParam
	Body   kir.Expr
}

// X builds a reference to an element-function parameter, for assembling
// Fn bodies.
func X(name string, t kir.Type) kir.Expr { return &kir.VarRef{Name: name, T: t} }

// Validate checks purity and that every variable the body reads is a
// declared parameter.
func (f Fn) Validate() error {
	if f.Body == nil {
		return fmt.Errorf("pattern: fn has no body")
	}
	seen := map[string]bool{}
	for _, p := range f.Params {
		if seen[p.Name] {
			return fmt.Errorf("pattern: fn has duplicate parameter %q", p.Name)
		}
		seen[p.Name] = true
	}
	if err := checkPure(f.Body); err != nil {
		return err
	}
	reads := map[string]bool{}
	kir.ReadVars(f.Body, reads)
	for name := range reads {
		if !seen[name] {
			return fmt.Errorf("pattern: fn body reads %q, not a parameter", name)
		}
	}
	return nil
}

// checkPure rejects expression leaves that would make an element function
// depend on anything but its arguments.
func checkPure(e kir.Expr) error {
	switch e := e.(type) {
	case nil:
		return nil
	case *kir.ConstInt, *kir.ConstFloat, *kir.VarRef:
		return nil
	case *kir.ParamRef:
		return fmt.Errorf("pattern: fn body reads kernel parameter %q; element functions must be pure", e.Name)
	case *kir.Builtin:
		return fmt.Errorf("pattern: fn body reads builtin %s; element functions must be pure", e.Kind)
	case *kir.Load:
		return fmt.Errorf("pattern: fn body loads from %q; element functions must be pure", e.Buf)
	case *kir.Bin:
		if err := checkPure(e.L); err != nil {
			return err
		}
		return checkPure(e.R)
	case *kir.Un:
		return checkPure(e.X)
	case *kir.Sel:
		if err := checkPure(e.Cond); err != nil {
			return err
		}
		if err := checkPure(e.A); err != nil {
			return err
		}
		return checkPure(e.B)
	case *kir.Cast:
		return checkPure(e.X)
	default:
		return fmt.Errorf("pattern: fn body has unknown expression %T", e)
	}
}

// Ret returns the element function's result type.
func (f Fn) Ret() kir.Type { return f.Body.Type() }

// Expr instantiates the function body with the given argument expressions
// (one per parameter, in order), the lowering-side application.
func (f Fn) Expr(args ...kir.Expr) kir.Expr {
	if len(args) != len(f.Params) {
		panic(fmt.Sprintf("pattern: fn applied to %d args, has %d params", len(args), len(f.Params)))
	}
	e := kir.CloneExpr(f.Body)
	for i, p := range f.Params {
		e = kir.SubstExpr(e, p.Name, args[i])
	}
	return e
}

// Eval applies the function to concrete 32-bit values, the evaluator-side
// application. Both sides share kir's expression semantics.
func (f Fn) Eval(args ...uint32) uint32 {
	if len(args) != len(f.Params) {
		panic(fmt.Sprintf("pattern: fn applied to %d args, has %d params", len(args), len(f.Params)))
	}
	vars := make(map[string]uint32, len(args))
	for i, p := range f.Params {
		vars[p.Name] = args[i]
	}
	return kir.EvalExpr(f.Body, kir.PureEnv{Vars: vars})
}

// Node is one stage of an elementwise dataflow graph: either an input
// buffer read at the current index, or the application of an element
// function to the values of its argument nodes at the same index. Map and
// Zip build Apply nodes; composition is nesting.
type Node struct {
	Input string // non-empty: leaf reading Input[i]
	T     kir.Type
	Fn    Fn
	Args  []*Node
}

// In builds an input leaf.
func In(name string, t kir.Type) *Node { return &Node{Input: name, T: t} }

// Map applies f elementwise to one stream.
func Map(f Fn, x *Node) *Node { return apply(f, x) }

// Zip applies f elementwise across two streams.
func Zip(f Fn, x, y *Node) *Node { return apply(f, x, y) }

// ZipN applies f elementwise across any number of streams.
func ZipN(f Fn, xs ...*Node) *Node { return apply(f, xs...) }

func apply(f Fn, xs ...*Node) *Node {
	return &Node{Fn: f, Args: xs, T: f.Ret()}
}

// Elem returns the node's element type.
func (n *Node) Elem() kir.Type { return n.T }

// validateNode checks arity and element types through the graph.
func validateNode(n *Node) error {
	if n == nil {
		return fmt.Errorf("pattern: nil node")
	}
	if n.Input != "" {
		if len(n.Args) != 0 {
			return fmt.Errorf("pattern: input node %q has arguments", n.Input)
		}
		return nil
	}
	if err := n.Fn.Validate(); err != nil {
		return err
	}
	if len(n.Args) == 0 {
		return fmt.Errorf("pattern: apply node has no arguments")
	}
	if len(n.Args) != len(n.Fn.Params) {
		return fmt.Errorf("pattern: apply node has %d arguments for a %d-parameter fn", len(n.Args), len(n.Fn.Params))
	}
	for i, a := range n.Args {
		if err := validateNode(a); err != nil {
			return err
		}
		if a.Elem() != n.Fn.Params[i].T {
			return fmt.Errorf("pattern: apply argument %d is %s, fn parameter %q wants %s",
				i, a.Elem(), n.Fn.Params[i].Name, n.Fn.Params[i].T)
		}
	}
	return nil
}

// nodeInputs appends the distinct input names of the graph in first-use
// (depth-first, argument-order) order.
func nodeInputs(n *Node, seen map[string]bool, out *[]string) {
	if n == nil {
		return
	}
	if n.Input != "" {
		if !seen[n.Input] {
			seen[n.Input] = true
			*out = append(*out, n.Input)
		}
		return
	}
	for _, a := range n.Args {
		nodeInputs(a, seen, out)
	}
}

// nodeDepth counts Apply stages (0 for a bare input).
func nodeDepth(n *Node) int {
	if n == nil || n.Input != "" {
		return 0
	}
	d := 0
	for _, a := range n.Args {
		if ad := nodeDepth(a); ad > d {
			d = ad
		}
	}
	return d + 1
}

// Kind enumerates the program skeletons.
type Kind int

const (
	KindMap Kind = iota
	KindReduce
	KindScan
	KindStencil2D
	KindMatMul
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindMap:
		return "map"
	case KindReduce:
		return "reduce"
	case KindScan:
		return "scan"
	case KindStencil2D:
		return "stencil2d"
	case KindMatMul:
		return "matmul"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Program is one top-level pattern program.
type Program interface {
	ProgName() string
	Kind() Kind
	Validate() error
	// Inputs lists the input buffer names in canonical (parameter) order.
	Inputs() []string
}

// MapProg computes out[i] = root(i) for i < n.
type MapProg struct {
	Name string
	Root *Node
}

// ProgName returns the program name.
func (p *MapProg) ProgName() string { return p.Name }

// Kind returns KindMap.
func (p *MapProg) Kind() Kind { return KindMap }

// Inputs lists input buffers in first-use order.
func (p *MapProg) Inputs() []string {
	var out []string
	nodeInputs(p.Root, map[string]bool{}, &out)
	return out
}

// Validate checks the dataflow graph.
func (p *MapProg) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("pattern: map program has no name")
	}
	if err := validateNode(p.Root); err != nil {
		return err
	}
	if nodeDepth(p.Root) == 0 {
		return fmt.Errorf("pattern: map program %q is a bare input; apply at least one fn", p.Name)
	}
	return nil
}

// ReduceProg folds root(0..n) with a binary combine, producing one partial
// per work-group (the host finishes the fold, as in SHOC). Identity is the
// bit pattern of the combine's identity element, used for out-of-range
// lanes.
type ReduceProg struct {
	Name     string
	Root     *Node
	Combine  Fn // 2-ary, associative, with Identity as identity
	Identity uint32
}

// ProgName returns the program name.
func (p *ReduceProg) ProgName() string { return p.Name }

// Kind returns KindReduce.
func (p *ReduceProg) Kind() Kind { return KindReduce }

// Inputs lists input buffers in first-use order.
func (p *ReduceProg) Inputs() []string {
	var out []string
	nodeInputs(p.Root, map[string]bool{}, &out)
	return out
}

// Validate checks the graph and the combine's shape.
func (p *ReduceProg) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("pattern: reduce program has no name")
	}
	if err := validateNode(p.Root); err != nil {
		return err
	}
	return checkCombine(p.Combine, p.Root.Elem())
}

// ScanProg computes the exclusive prefix fold of Input under Combine, in
// the three-kernel multi-level shape (per-block Blelloch scan, block-sums
// scan, uniform add).
type ScanProg struct {
	Name     string
	Input    string
	Elem     kir.Type
	Combine  Fn
	Identity uint32
}

// ProgName returns the program name.
func (p *ScanProg) ProgName() string { return p.Name }

// Kind returns KindScan.
func (p *ScanProg) Kind() Kind { return KindScan }

// Inputs lists the single input buffer.
func (p *ScanProg) Inputs() []string { return []string{p.Input} }

// Validate checks the combine's shape.
func (p *ScanProg) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("pattern: scan program has no name")
	}
	if p.Input == "" {
		return fmt.Errorf("pattern: scan program %q has no input", p.Name)
	}
	return checkCombine(p.Combine, p.Elem)
}

func checkCombine(f Fn, elem kir.Type) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if len(f.Params) != 2 {
		return fmt.Errorf("pattern: combine must be binary, has %d params", len(f.Params))
	}
	if f.Params[0].T != elem || f.Params[1].T != elem || f.Ret() != elem {
		return fmt.Errorf("pattern: combine must be %s x %s -> %s", elem, elem, elem)
	}
	return nil
}

// Tap is one stencil offset.
type Tap struct {
	DY, DX int
}

// Stencil2DProg applies Fn to a fixed neighbourhood of Input at every
// interior point of a w x h grid; border cells pass through whatever the
// output buffer already holds. Fn takes one parameter per tap, in tap
// order; when Coeffs is non-empty it additionally takes one coefficient
// parameter per tap, bound to a device-side coefficient buffer whose
// memory space (constant vs global) is a schedule decision — the Sobel
// placement question of the paper's Fig. 8.
type Stencil2DProg struct {
	Name   string
	Input  string
	Taps   []Tap
	Coeffs []float32
	Fn     Fn
}

// ProgName returns the program name.
func (p *Stencil2DProg) ProgName() string { return p.Name }

// Kind returns KindStencil2D.
func (p *Stencil2DProg) Kind() Kind { return KindStencil2D }

// Inputs lists the single input buffer.
func (p *Stencil2DProg) Inputs() []string { return []string{p.Input} }

// Validate checks tap/parameter correspondence.
func (p *Stencil2DProg) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("pattern: stencil program has no name")
	}
	if p.Input == "" {
		return fmt.Errorf("pattern: stencil program %q has no input", p.Name)
	}
	if len(p.Taps) == 0 {
		return fmt.Errorf("pattern: stencil program %q has no taps", p.Name)
	}
	if err := p.Fn.Validate(); err != nil {
		return err
	}
	want := len(p.Taps)
	if len(p.Coeffs) > 0 {
		if len(p.Coeffs) != len(p.Taps) {
			return fmt.Errorf("pattern: stencil program %q has %d coeffs for %d taps", p.Name, len(p.Coeffs), len(p.Taps))
		}
		want *= 2
	}
	if len(p.Fn.Params) != want {
		return fmt.Errorf("pattern: stencil fn has %d params, want %d (taps then coeffs)", len(p.Fn.Params), want)
	}
	for _, prm := range p.Fn.Params {
		if prm.T != kir.F32 {
			return fmt.Errorf("pattern: stencil fn parameter %q must be f32", prm.Name)
		}
	}
	if p.Fn.Ret() != kir.F32 {
		return fmt.Errorf("pattern: stencil fn must return f32")
	}
	return nil
}

// MatMulProg is C = A x B over square n x n f32 matrices: the composition
// of a 2-D map over (row, col) with an inner k-reduce of A[row,k]*B[k,col],
// accumulated in ascending k — the association both the naive and the
// shared-memory-tiled lowerings preserve, so the tiling rewrite is
// bit-exact.
type MatMulProg struct {
	Name string
}

// ProgName returns the program name.
func (p *MatMulProg) ProgName() string { return p.Name }

// Kind returns KindMatMul.
func (p *MatMulProg) Kind() Kind { return KindMatMul }

// Inputs lists the two matrices.
func (p *MatMulProg) Inputs() []string { return []string{"A", "B"} }

// Validate checks the name.
func (p *MatMulProg) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("pattern: matmul program has no name")
	}
	return nil
}

// Shape carries the concrete problem size a lowering is instantiated for:
// N for the 1-D skeletons and the matrix dimension, W/H for stencils. A
// matmul with H set computes only the first H rows of C (0 means N).
type Shape struct {
	N int `json:"n,omitempty"`
	W int `json:"w,omitempty"`
	H int `json:"h,omitempty"`
}
