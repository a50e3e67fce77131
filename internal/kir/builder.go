package kir

import "fmt"

// Buf is a handle to a buffer (parameter or on-chip array) usable with
// Builder.Load and Builder.Store.
type Buf struct {
	name string
	t    Type
}

// Name returns the buffer's declared name.
func (b Buf) Name() string { return b.name }

// Builder assembles a Kernel with structured-block scoping. Statement
// methods append to the innermost open block; If/For take closures that
// populate their bodies.
type Builder struct {
	k      *Kernel
	blocks []*[]Stmt
	err    error
}

// NewKernel starts building a kernel.
func NewKernel(name string) *Builder {
	k := &Kernel{Name: name}
	b := &Builder{k: k}
	b.blocks = []*[]Stmt{&k.Body}
	return b
}

func (b *Builder) setErr(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("kir: kernel %s: "+format, append([]any{b.k.Name}, args...)...)
	}
}

func (b *Builder) cur() *[]Stmt { return b.blocks[len(b.blocks)-1] }

func (b *Builder) push(block *[]Stmt) { b.blocks = append(b.blocks, block) }
func (b *Builder) pop()               { b.blocks = b.blocks[:len(b.blocks)-1] }

// GlobalBuffer declares a global-memory buffer parameter.
func (b *Builder) GlobalBuffer(name string, t Type) Buf { return b.buffer(name, t, Global) }

// ConstBuffer declares a constant-memory buffer parameter (the Sobel filter
// placement of Section IV-B3).
func (b *Builder) ConstBuffer(name string, t Type) Buf { return b.buffer(name, t, Const) }

// TexBuffer declares a read-only global buffer fetched through the texture
// cache (the MD/SPMV placement of Section IV-B1).
func (b *Builder) TexBuffer(name string, t Type) Buf { return b.buffer(name, t, Texture) }

func (b *Builder) buffer(name string, t Type, space MemSpace) Buf {
	if b.k.Param(name) != nil {
		b.setErr("duplicate parameter %q", name)
	}
	b.k.Params = append(b.k.Params, Param{Name: name, T: t, Buffer: true, Space: space})
	return Buf{name: name, t: t}
}

// ScalarParam declares a scalar kernel parameter and returns an expression
// reading it.
func (b *Builder) ScalarParam(name string, t Type) Expr {
	if b.k.Param(name) != nil {
		b.setErr("duplicate parameter %q", name)
	}
	b.k.Params = append(b.k.Params, Param{Name: name, T: t})
	return &ParamRef{Name: name, T: t}
}

// SharedArray declares an on-chip shared array of count elements.
func (b *Builder) SharedArray(name string, t Type, count int) Buf {
	b.k.SharedArrays = append(b.k.SharedArrays, Array{Name: name, T: t, Count: count})
	return Buf{name: name, t: t}
}

// LocalArray declares a per-thread local array of count elements.
func (b *Builder) LocalArray(name string, t Type, count int) Buf {
	b.k.LocalArrays = append(b.k.LocalArrays, Array{Name: name, T: t, Count: count})
	return Buf{name: name, t: t}
}

// AssumeWarpWidth records a warp-width assumption baked into the algorithm.
func (b *Builder) AssumeWarpWidth(w int) { b.k.WarpWidthAssumption = w }

// Declare introduces a scalar variable initialised to init and returns a
// reference to it.
func (b *Builder) Declare(name string, init Expr) Expr {
	if init == nil {
		b.setErr("Declare(%q) with nil init", name)
		return &VarRef{Name: name}
	}
	*b.cur() = append(*b.cur(), &DeclStmt{Name: name, T: init.Type(), Init: init})
	return &VarRef{Name: name, T: init.Type()}
}

// Assign overwrites a declared variable; dst must come from Declare or a
// For loop variable.
func (b *Builder) Assign(dst Expr, value Expr) {
	v, ok := dst.(*VarRef)
	if !ok {
		b.setErr("Assign target is not a variable reference")
		return
	}
	*b.cur() = append(*b.cur(), &AssignStmt{Name: v.Name, Value: value})
}

// Load reads buf[idx].
func (b *Builder) Load(buf Buf, idx Expr) Expr {
	return &Load{Buf: buf.name, Index: idx, T: buf.t}
}

// Store writes buf[idx] = val.
func (b *Builder) Store(buf Buf, idx Expr, val Expr) {
	*b.cur() = append(*b.cur(), &StoreStmt{Buf: buf.name, Index: idx, Value: val})
}

// Atomic applies op read-modify-write to buf[idx].
func (b *Builder) Atomic(buf Buf, idx Expr, op AtomicOp, val Expr) {
	*b.cur() = append(*b.cur(), &AtomicStmt{Buf: buf.name, Index: idx, Value: val, Op: op})
}

// AtomicResult is Atomic with the old value captured into a previously
// declared variable.
func (b *Builder) AtomicResult(buf Buf, idx Expr, op AtomicOp, val Expr, result Expr) {
	v, ok := result.(*VarRef)
	if !ok {
		b.setErr("AtomicResult target is not a variable reference")
		return
	}
	*b.cur() = append(*b.cur(), &AtomicStmt{Buf: buf.name, Index: idx, Value: val, Op: op, Result: v.Name})
}

// If appends a one-armed conditional whose body is built by fn.
func (b *Builder) If(cond Expr, fn func()) {
	s := &IfStmt{Cond: cond}
	*b.cur() = append(*b.cur(), s)
	b.push(&s.Then)
	fn()
	b.pop()
}

// IfElse appends a two-armed conditional.
func (b *Builder) IfElse(cond Expr, thenFn, elseFn func()) {
	s := &IfStmt{Cond: cond}
	*b.cur() = append(*b.cur(), s)
	b.push(&s.Then)
	thenFn()
	b.pop()
	b.push(&s.Else)
	elseFn()
	b.pop()
}

// For appends a counted loop `for v := init; v < limit; v += step` and
// builds its body with fn, which receives the loop variable.
func (b *Builder) For(name string, init, limit, step Expr, fn func(v Expr)) {
	b.forLoop(name, init, limit, step, 0, fn)
}

// ForUnroll is For with a "#pragma unroll factor" attached (UnrollFull for
// complete unrolling).
func (b *Builder) ForUnroll(name string, init, limit, step Expr, factor int, fn func(v Expr)) {
	b.forLoop(name, init, limit, step, factor, fn)
}

func (b *Builder) forLoop(name string, init, limit, step Expr, unroll int, fn func(v Expr)) {
	t := U32
	if init != nil {
		t = init.Type()
	}
	s := &ForStmt{Var: name, T: t, Init: init, Limit: limit, Step: step, Unroll: unroll}
	*b.cur() = append(*b.cur(), s)
	b.push(&s.Body)
	fn(&VarRef{Name: name, T: t})
	b.pop()
}

// Barrier appends a work-group barrier.
func (b *Builder) Barrier() {
	*b.cur() = append(*b.cur(), &BarrierStmt{})
}

// GlobalIDX returns blockIdx.x*blockDim.x + threadIdx.x.
func (b *Builder) GlobalIDX() Expr {
	return Add(Mul(Bi(CtaidX), Bi(NtidX)), Bi(TidX))
}

// GlobalIDY returns blockIdx.y*blockDim.y + threadIdx.y.
func (b *Builder) GlobalIDY() Expr {
	return Add(Mul(Bi(CtaidY), Bi(NtidY)), Bi(TidY))
}

// Build finalises the kernel, running the type checker.
func (b *Builder) Build() (*Kernel, error) {
	if len(b.blocks) != 1 {
		b.setErr("unbalanced blocks")
	}
	if b.err != nil {
		return nil, b.err
	}
	if err := Check(b.k); err != nil {
		return nil, err
	}
	return b.k, nil
}

// MustBuild is Build that panics on error; benchmark kernels are static so
// a failure is a programming bug.
func (b *Builder) MustBuild() *Kernel {
	k, err := b.Build()
	if err != nil {
		panic(err)
	}
	return k
}

// ---- Expression helper constructors ----

// U returns a U32 literal.
func U(v uint32) Expr { return &ConstInt{T: U32, V: int64(v)} }

// I returns an I32 literal.
func I(v int32) Expr { return &ConstInt{T: I32, V: int64(v)} }

// F returns an F32 literal.
func F(v float32) Expr { return &ConstFloat{V: v} }

// Bi reads a builtin work-item register.
func Bi(k BuiltinKind) Expr { return &Builtin{Kind: k} }

// Add returns l + r.
func Add(l, r Expr) Expr { return &Bin{Op: OpAdd, L: l, R: r} }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return &Bin{Op: OpSub, L: l, R: r} }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return &Bin{Op: OpMul, L: l, R: r} }

// Div returns l / r.
func Div(l, r Expr) Expr { return &Bin{Op: OpDiv, L: l, R: r} }

// Rem returns l % r.
func Rem(l, r Expr) Expr { return &Bin{Op: OpRem, L: l, R: r} }

// Min returns min(l, r).
func Min(l, r Expr) Expr { return &Bin{Op: OpMin, L: l, R: r} }

// Max returns max(l, r).
func Max(l, r Expr) Expr { return &Bin{Op: OpMax, L: l, R: r} }

// And returns l & r.
func And(l, r Expr) Expr { return &Bin{Op: OpAnd, L: l, R: r} }

// Or returns l | r.
func Or(l, r Expr) Expr { return &Bin{Op: OpOr, L: l, R: r} }

// Xor returns l ^ r.
func Xor(l, r Expr) Expr { return &Bin{Op: OpXor, L: l, R: r} }

// Shl returns l << r.
func Shl(l, r Expr) Expr { return &Bin{Op: OpShl, L: l, R: r} }

// Shr returns l >> r.
func Shr(l, r Expr) Expr { return &Bin{Op: OpShr, L: l, R: r} }

// Eq returns l == r.
func Eq(l, r Expr) Expr { return &Bin{Op: OpEq, L: l, R: r} }

// Ne returns l != r.
func Ne(l, r Expr) Expr { return &Bin{Op: OpNe, L: l, R: r} }

// Lt returns l < r.
func Lt(l, r Expr) Expr { return &Bin{Op: OpLt, L: l, R: r} }

// Le returns l <= r.
func Le(l, r Expr) Expr { return &Bin{Op: OpLe, L: l, R: r} }

// Gt returns l > r.
func Gt(l, r Expr) Expr { return &Bin{Op: OpGt, L: l, R: r} }

// Ge returns l >= r.
func Ge(l, r Expr) Expr { return &Bin{Op: OpGe, L: l, R: r} }

// LAnd returns l && r (non-short-circuit, as in predicated GPU code).
func LAnd(l, r Expr) Expr { return &Bin{Op: OpLAnd, L: l, R: r} }

// LOr returns l || r.
func LOr(l, r Expr) Expr { return &Bin{Op: OpLOr, L: l, R: r} }

// Neg returns -x.
func Neg(x Expr) Expr { return &Un{Op: OpNeg, X: x} }

// Not returns ^x (or !x for Bool).
func Not(x Expr) Expr { return &Un{Op: OpNot, X: x} }

// Abs returns |x|.
func Abs(x Expr) Expr { return &Un{Op: OpAbs, X: x} }

// Sqrt returns sqrt(x).
func Sqrt(x Expr) Expr { return &Un{Op: OpSqrt, X: x} }

// Rsqrt returns 1/sqrt(x).
func Rsqrt(x Expr) Expr { return &Un{Op: OpRsqrt, X: x} }

// Sin returns sin(x).
func Sin(x Expr) Expr { return &Un{Op: OpSin, X: x} }

// Cos returns cos(x).
func Cos(x Expr) Expr { return &Un{Op: OpCos, X: x} }

// Exp2 returns 2^x.
func Exp2(x Expr) Expr { return &Un{Op: OpExp2, X: x} }

// Log2 returns log2(x).
func Log2(x Expr) Expr { return &Un{Op: OpLog2, X: x} }

// Select returns cond ? a : b.
func Select(cond, a, b Expr) Expr { return &Sel{Cond: cond, A: a, B: b} }

// CastTo converts x to type t (numeric conversion; bit patterns for
// B-style reinterpretation are not needed by the benchmarks).
func CastTo(t Type, x Expr) Expr { return &Cast{To: t, X: x} }
