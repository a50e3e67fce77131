// Package fuzz is the differential kernel fuzzer: a seeded, deterministic
// generator of well-typed KIR programs plus a three-way oracle that runs
// each program through the reference interpreter (kir.Run) and through both
// compiler personalities on the SIMT simulator, on every modelled device,
// and diffs the output buffers bit-for-bit. The paper's central assumption —
// that CUDA and OpenCL kernels with the same source semantics compute the
// same values, and only the toolchain and architecture differ (Section
// IV-B4) — is only reproducible if this holds for our stack; the fuzzer is
// the standing correctness gate that enforces it.
//
// Generated kernels are schedule-independent by construction: barriers are
// emitted only at top level (kir.CheckUniformBarriers verifies this),
// shared-memory writes in one barrier interval touch only the writing
// thread's own slot, and reads of other threads' slots happen only in a
// later interval. Global stores go only to the thread's own out[gid] slot.
// Under these rules the interpreter, both personalities, and every warp
// width must agree exactly.
package fuzz

import (
	"fmt"

	"gpucmp/internal/kir"
	"gpucmp/internal/workload"
)

// Features toggles the kernel-language surface the generator draws from.
type Features struct {
	I32        bool // signed arithmetic alongside unsigned
	F32        bool // float arithmetic and conversions
	ConstBuf   bool // a constant-space input buffer
	TexBuf     bool // a texture-space input buffer
	Shared     bool // shared-memory tiles with publish/barrier/consume phases
	Reduction  bool // an atomics-free shared-memory tree reduction
	LocalArray bool // a per-thread local array
	Loops      bool // data-dependent bounded loops, with unroll pragmas
}

// AllFeatures enables everything.
func AllFeatures() Features {
	return Features{I32: true, F32: true, ConstBuf: true, TexBuf: true,
		Shared: true, Reduction: true, LocalArray: true, Loops: true}
}

// GenConfig bounds one generated program.
type GenConfig struct {
	Block     int // threads per 1-D block; must be a power of two ≤ 256
	Grid      int // number of blocks
	BufLen    int // words in the global input buffer
	MaxPhases int // barrier-separated program phases
	MaxStmts  int // random statements per phase
	MaxDepth  int // expression tree depth
	Features  Features
}

// DefaultConfig fits every modelled device: 64-thread blocks stay inside
// the HD5870/Cell work-group limit of 256 and the Cell SPE local store.
func DefaultConfig() GenConfig {
	return GenConfig{
		Block:     64,
		Grid:      2,
		BufLen:    256,
		MaxPhases: 3,
		MaxStmts:  4,
		MaxDepth:  3,
		Features:  AllFeatures(),
	}
}

const (
	coefLen = 16 // constant-buffer words
	texLen  = 64 // texture-buffer words
	locLen  = 4  // per-thread local array words
)

// Generate builds the deterministic random program for one seed. The same
// (seed, cfg) pair always yields the same kernel and the same input data.
func Generate(seed uint64, cfg GenConfig) *Program {
	if cfg.Block <= 0 || cfg.Block&(cfg.Block-1) != 0 {
		panic(fmt.Sprintf("fuzz: Generate: block %d is not a power of two", cfg.Block))
	}
	g := &gen{
		cfg:  cfg,
		r:    workload.NewRNG(seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d),
		varT: map[string]kir.Type{},
	}
	g.b = kir.NewKernel(fmt.Sprintf("fz%d", seed))
	g.in = g.b.GlobalBuffer("in", kir.U32)
	g.out = g.b.GlobalBuffer("out", kir.U32)
	if cfg.Features.ConstBuf && g.r.Intn(2) == 0 {
		g.coef = g.b.ConstBuffer("coef", kir.U32)
		g.hasCoef = true
	}
	if cfg.Features.TexBuf && g.r.Intn(2) == 0 {
		g.tex = g.b.TexBuffer("tex", kir.U32)
		g.hasTex = true
	}
	g.b.ScalarParam("s", kir.U32)
	if cfg.Features.Shared && g.r.Intn(3) != 0 {
		g.sh = g.b.SharedArray("sh", kir.U32, cfg.Block)
		g.hasShared = true
	}
	if cfg.Features.LocalArray && g.r.Intn(2) == 0 {
		g.loc = g.b.LocalArray("loc", kir.U32, locLen)
		g.hasLocal = true
	}

	g.declare("gid", g.b.GlobalIDX())
	if g.hasLocal {
		// Initialise every local slot so no path reads uninitialised memory.
		for i := 0; i < locLen; i++ {
			g.b.Store(g.loc, kir.U(uint32(i)), g.intExpr(1, kir.U32))
		}
	}

	phases := 1 + g.r.Intn(cfg.MaxPhases)
	for p := 0; p < phases; p++ {
		n := 1 + g.r.Intn(cfg.MaxStmts)
		for i := 0; i < n; i++ {
			g.stmt(2)
		}
		if g.hasShared && g.r.Intn(2) == 0 {
			g.publish()
		}
	}
	if g.hasShared && cfg.Features.Reduction && g.r.Intn(2) == 0 {
		g.reduction()
	}
	g.finalStore()

	k, err := g.b.Build()
	if err != nil {
		panic(fmt.Sprintf("fuzz: seed %d generated an invalid kernel: %v", seed, err))
	}
	if err := kir.CheckUniformBarriers(k); err != nil {
		panic(fmt.Sprintf("fuzz: seed %d generated divergent barriers: %v", seed, err))
	}
	if err := CheckBoundedLoops(k); err != nil {
		panic(fmt.Sprintf("fuzz: seed %d generated a non-terminating kernel: %v", seed, err))
	}

	prog := &Program{
		Seed:    seed,
		Kernel:  k,
		Grid:    cfg.Grid,
		Block:   cfg.Block,
		Out:     "out",
		Buffers: map[string][]uint32{},
		Scalars: map[string]uint32{"s": g.r.Uint32()},
	}
	prog.Buffers["in"] = g.words(cfg.BufLen)
	prog.Buffers["out"] = make([]uint32, cfg.Grid*cfg.Block)
	if g.hasCoef {
		prog.Buffers["coef"] = g.words(coefLen)
	}
	if g.hasTex {
		prog.Buffers["tex"] = g.words(texLen)
	}
	return prog
}

type gen struct {
	cfg GenConfig
	r   *workload.RNG
	b   *kir.Builder

	in, out, coef, tex, sh, loc kir.Buf
	hasCoef, hasTex             bool
	hasShared, hasLocal         bool

	intVars []string // declared integer scalars (U32 or I32)
	f32Vars []string
	varT    map[string]kir.Type
	nv      int

	shWritten     bool // a previous barrier interval published shared data
	readSinceBar  bool // this interval read shared memory
	writeSinceBar bool // this interval wrote shared memory
}

func (g *gen) words(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = g.r.Uint32()
	}
	return out
}

func (g *gen) declare(name string, init kir.Expr) {
	g.b.Declare(name, init)
	t := init.Type()
	g.varT[name] = t
	if t == kir.F32 {
		g.f32Vars = append(g.f32Vars, name)
	} else {
		g.intVars = append(g.intVars, name)
	}
}

func (g *gen) fresh() string {
	g.nv++
	return fmt.Sprintf("v%d", g.nv)
}

func (g *gen) intType() kir.Type {
	if g.cfg.Features.I32 && g.r.Intn(3) == 0 {
		return kir.I32
	}
	return kir.U32
}

func (g *gen) ref(name string) kir.Expr {
	return &kir.VarRef{Name: name, T: g.varT[name]}
}

// barrier emits a work-group barrier and resets the interval bookkeeping.
func (g *gen) barrier() {
	g.b.Barrier()
	if g.writeSinceBar {
		g.shWritten = true
	}
	g.readSinceBar = false
	g.writeSinceBar = false
}

// shReadable reports whether a shared load is race-free right now: an
// earlier interval published data and this interval has not written.
func (g *gen) shReadable() bool {
	return g.hasShared && g.shWritten && !g.writeSinceBar
}

// ownSlot returns a bijective per-thread shared-memory index, so parallel
// publishes never collide.
func (g *gen) ownSlot() kir.Expr {
	tid := kir.Bi(kir.TidX)
	n := uint32(g.cfg.Block)
	switch g.r.Intn(3) {
	case 0:
		return tid
	case 1:
		return kir.Rem(kir.Add(tid, kir.U(1+g.r.Uint32()%(n-1))), kir.U(n))
	default:
		return kir.Xor(tid, kir.U(g.r.Uint32()%n)) // block is a power of two
	}
}

// publish writes this thread's slot and closes the interval with a
// barrier. If the current interval already consumed shared data, a barrier
// separates the reads from the write.
func (g *gen) publish() {
	if g.readSinceBar {
		g.barrier()
	}
	g.writeSinceBar = true // no shared loads inside the published value
	val := g.intExpr(g.cfg.MaxDepth, kir.U32)
	g.b.Store(g.sh, g.ownSlot(), val)
	g.barrier()
}

// reduction emits an atomics-free shared-memory tree reduction: publish,
// then log2(block) rounds of "if (tid < stride) sh[tid] ⊕= sh[tid+stride]"
// with a top-level barrier between rounds. Every thread then reads the
// root. The combining operators are associative and commutative over u32,
// so the result is independent of both schedule and warp width.
func (g *gen) reduction() {
	if g.readSinceBar || g.writeSinceBar {
		g.barrier()
	}
	g.writeSinceBar = true
	g.b.Store(g.sh, kir.Bi(kir.TidX), g.intExpr(g.cfg.MaxDepth, kir.U32))
	g.barrier()

	ops := []kir.BinOp{kir.OpAdd, kir.OpXor, kir.OpAnd, kir.OpOr, kir.OpMin, kir.OpMax}
	op := ops[g.r.Intn(len(ops))]
	tid := kir.Bi(kir.TidX)
	for stride := g.cfg.Block / 2; stride >= 1; stride /= 2 {
		g.b.If(kir.Lt(tid, kir.U(uint32(stride))), func() {
			a := &kir.Load{Buf: g.sh.Name(), Index: kir.Bi(kir.TidX), T: kir.U32}
			bb := &kir.Load{Buf: g.sh.Name(), Index: kir.Add(kir.Bi(kir.TidX), kir.U(uint32(stride))), T: kir.U32}
			g.b.Store(g.sh, kir.Bi(kir.TidX), &kir.Bin{Op: op, L: a, R: bb})
		})
		g.b.Barrier()
	}
	g.shWritten = true
	g.readSinceBar, g.writeSinceBar = false, false

	name := "red" + g.fresh()
	g.readSinceBar = true
	g.declare(name, &kir.Load{Buf: g.sh.Name(), Index: kir.U(0), T: kir.U32})
}

// finalStore writes a mix of every live scalar to out[gid], so nothing the
// kernel computed is dead code.
func (g *gen) finalStore() {
	var acc kir.Expr = g.ref("gid")
	for _, v := range g.intVars {
		if v == "gid" {
			continue
		}
		term := g.ref(v)
		if g.varT[v] == kir.I32 {
			term = kir.CastTo(kir.U32, term)
		}
		acc = kir.Xor(kir.Mul(acc, kir.U(0x9e3779b1)), term)
	}
	for _, v := range g.f32Vars {
		acc = kir.Add(acc, kir.CastTo(kir.U32, g.ref(v)))
	}
	g.b.Store(g.out, g.ref("gid"), acc)
	if g.r.Intn(3) == 0 {
		// A conditional overwrite exercises guarded/predicated stores.
		g.b.If(g.cond(1), func() {
			g.b.Store(g.out, g.ref("gid"), g.intExpr(2, kir.U32))
		})
	}
}

// stmt emits one random statement at the current block level. depth bounds
// control-flow nesting.
func (g *gen) stmt(depth int) {
	switch g.r.Intn(8) {
	case 0, 1:
		g.declare(g.fresh(), g.intExpr(g.cfg.MaxDepth, g.intType()))
	case 2:
		if g.cfg.Features.F32 {
			g.declare(g.fresh(), g.f32Expr(g.cfg.MaxDepth))
			return
		}
		g.stmt(depth)
	case 3:
		g.assign()
	case 4:
		if depth > 0 && len(g.intVars) > 1 {
			g.ifStmt(depth)
			return
		}
		g.stmt(0)
	case 5:
		if depth > 0 && g.cfg.Features.Loops && len(g.intVars) > 1 {
			g.forStmt(depth)
			return
		}
		g.stmt(0)
	case 6:
		if g.hasLocal {
			idx := kir.Rem(g.toU32(g.intExpr(2, g.intType())), kir.U(locLen))
			g.b.Store(g.loc, idx, g.intExpr(2, kir.U32))
			return
		}
		g.stmt(0)
	default:
		if g.shReadable() {
			g.readSinceBar = true
			idx := kir.Rem(g.toU32(g.intExpr(2, g.intType())), kir.U(uint32(g.cfg.Block)))
			g.declare(g.fresh(), &kir.Load{Buf: g.sh.Name(), Index: idx, T: kir.U32})
			return
		}
		g.declare(g.fresh(), g.intExpr(g.cfg.MaxDepth, kir.U32))
	}
}

func (g *gen) assign() {
	if g.cfg.Features.F32 && len(g.f32Vars) > 0 && g.r.Intn(3) == 0 {
		name := g.f32Vars[g.r.Intn(len(g.f32Vars))]
		g.b.Assign(g.ref(name), g.f32Expr(g.cfg.MaxDepth))
		return
	}
	// Never reassign gid: out[gid] must remain this thread's own slot or
	// the final stores would race.
	var targets []string
	for _, v := range g.intVars {
		if v != "gid" {
			targets = append(targets, v)
		}
	}
	if len(targets) == 0 {
		return
	}
	name := targets[g.r.Intn(len(targets))]
	g.b.Assign(g.ref(name), g.intExpr(g.cfg.MaxDepth, g.varT[name]))
}

func (g *gen) ifStmt(depth int) {
	cond := g.cond(2)
	if g.r.Intn(2) == 0 {
		g.b.If(cond, func() { g.innerStmts(depth - 1) })
	} else {
		g.b.IfElse(cond,
			func() { g.innerStmts(depth - 1) },
			func() { g.innerStmts(depth - 1) })
	}
}

// forStmt emits a counted loop with a data-dependent but bounded trip
// count, optionally carrying an unroll pragma (the FDTD point-a shape).
func (g *gen) forStmt(depth int) {
	trips := kir.Rem(g.toU32(g.intExpr(1, g.intType())), kir.U(uint32(2+g.r.Intn(6))))
	unroll := 0
	if g.r.Intn(3) == 0 {
		unroll = []int{kir.UnrollFull, 2, 3, 4}[g.r.Intn(4)]
	}
	name := "i" + g.fresh()
	g.b.ForUnroll(name, kir.U(0), trips, kir.U(1), unroll, func(v kir.Expr) {
		g.varT[name] = kir.U32
		g.innerStmts(depth - 1)
		delete(g.varT, name)
	})
}

// innerStmts populates an if/for body with side-effecting statements only
// (assignments and local stores — never declarations, whose scope would end
// with the block, and never barriers).
func (g *gen) innerStmts(depth int) {
	n := 1 + g.r.Intn(2)
	for i := 0; i < n; i++ {
		switch g.r.Intn(4) {
		case 0:
			if g.hasLocal {
				idx := kir.Rem(g.toU32(g.intExpr(1, g.intType())), kir.U(locLen))
				g.b.Store(g.loc, idx, g.intExpr(2, kir.U32))
				continue
			}
			g.assign()
		case 1:
			if depth > 0 && len(g.intVars) > 1 {
				g.ifStmt(depth)
				continue
			}
			g.assign()
		default:
			g.assign()
		}
	}
}

// toU32 coerces an integer expression to U32-typed semantics (a bit-level
// no-op on both pipelines) so Rem-wrapped indices are always in range.
func (g *gen) toU32(e kir.Expr) kir.Expr {
	if e.Type() == kir.U32 {
		return e
	}
	return kir.CastTo(kir.U32, e)
}

// intConsts are the interesting integer boundary values.
var intConsts = []uint32{0, 1, 2, 3, 5, 7, 31, 32, 33, 64, 255, 256, 1024,
	0x7fffffff, 0x80000000, 0xfffffffe, 0xffffffff}

// intLeaf returns an expression of exactly type t.
func (g *gen) intLeaf(t kir.Type) kir.Expr {
	pick := g.r.Intn(10)
	switch {
	case pick < 3:
		c := intConsts[g.r.Intn(len(intConsts))]
		if g.r.Intn(2) == 0 {
			c = g.r.Uint32() % 4096
		}
		return &kir.ConstInt{T: t, V: int64(c)}
	case pick == 3:
		if t == kir.U32 {
			return &kir.ParamRef{Name: "s", T: kir.U32}
		}
		return kir.CastTo(t, &kir.ParamRef{Name: "s", T: kir.U32})
	case pick == 4:
		bis := []kir.BuiltinKind{kir.TidX, kir.NtidX, kir.CtaidX, kir.NctaidX}
		var e kir.Expr = kir.Bi(bis[g.r.Intn(len(bis))])
		if t != kir.U32 {
			e = kir.CastTo(t, e)
		}
		return e
	case pick <= 7:
		// A variable of the exact type, if one exists.
		var match []string
		for _, v := range g.intVars {
			if g.varT[v] == t {
				match = append(match, v)
			}
		}
		if len(match) > 0 {
			return g.ref(match[g.r.Intn(len(match))])
		}
		fallthrough
	default:
		var e kir.Expr = g.ref("gid")
		if t != kir.U32 {
			e = kir.CastTo(t, e)
		}
		return e
	}
}

// load returns a wrapped-index load from one of the read-only buffers (or
// the local array, or readable shared memory).
func (g *gen) load(depth int, t kir.Type) kir.Expr {
	type src struct {
		buf kir.Buf
		n   uint32
	}
	var srcs []src
	srcs = append(srcs, src{g.in, uint32(g.cfg.BufLen)})
	if g.hasCoef {
		srcs = append(srcs, src{g.coef, coefLen})
	}
	if g.hasTex {
		srcs = append(srcs, src{g.tex, texLen})
	}
	if g.hasLocal {
		srcs = append(srcs, src{g.loc, locLen})
	}
	if g.shReadable() {
		srcs = append(srcs, src{g.sh, uint32(g.cfg.Block)})
	}
	s := srcs[g.r.Intn(len(srcs))]
	if g.hasShared && s.buf.Name() == g.sh.Name() {
		g.readSinceBar = true
	}
	idx := kir.Rem(g.toU32(g.intExpr(depth-1, g.intType())), kir.U(s.n))
	var e kir.Expr = &kir.Load{Buf: s.buf.Name(), Index: idx, T: kir.U32}
	if t != kir.U32 {
		e = kir.CastTo(t, e)
	}
	return e
}

// intExpr builds a random integer expression whose semantic type (the type
// of the left operand, as both the interpreter and the compilers resolve
// it) is exactly t.
func (g *gen) intExpr(depth int, t kir.Type) kir.Expr {
	if depth <= 0 {
		return g.intLeaf(t)
	}
	switch g.r.Intn(12) {
	case 0, 1:
		return g.intLeaf(t)
	case 2, 3:
		ops := []kir.BinOp{kir.OpAdd, kir.OpSub, kir.OpMul, kir.OpAnd,
			kir.OpOr, kir.OpXor, kir.OpMin, kir.OpMax}
		return &kir.Bin{Op: ops[g.r.Intn(len(ops))],
			L: g.intExpr(depth-1, t), R: g.intExpr(depth-1, g.intType())}
	case 4:
		op := kir.OpShl
		if g.r.Intn(2) == 0 {
			op = kir.OpShr
		}
		return &kir.Bin{Op: op, L: g.intExpr(depth-1, t),
			R: &kir.ConstInt{T: kir.U32, V: int64(g.r.Intn(33))}}
	case 5:
		// Division and remainder; both pipelines define the zero-divisor
		// case identically, so an unguarded denominator is fair game too.
		op := kir.OpDiv
		if g.r.Intn(2) == 0 {
			op = kir.OpRem
		}
		den := g.intExpr(depth-1, g.intType())
		if g.r.Intn(3) != 0 {
			den = &kir.Bin{Op: kir.OpOr, L: den, R: &kir.ConstInt{T: den.Type(), V: 1}}
		}
		return &kir.Bin{Op: op, L: g.intExpr(depth-1, t), R: den}
	case 6:
		// Powers of two feed the OpenCL personality's strength reducer.
		pow := uint32(1) << uint(1+g.r.Intn(8))
		ops := []kir.BinOp{kir.OpMul, kir.OpDiv, kir.OpRem}
		return &kir.Bin{Op: ops[g.r.Intn(3)],
			L: g.intExpr(depth-1, t), R: &kir.ConstInt{T: kir.U32, V: int64(pow)}}
	case 7:
		return kir.Select(g.cond(depth-1), g.intExpr(depth-1, t), g.intExpr(depth-1, t))
	case 8:
		switch g.r.Intn(3) {
		case 0:
			return kir.Not(g.intExpr(depth-1, t))
		case 1:
			return kir.Neg(g.intExpr(depth-1, t))
		default:
			return kir.Abs(g.intExpr(depth-1, t))
		}
	case 9:
		// Conversion chains: through the other integer type, or F32.
		if g.cfg.Features.F32 && g.r.Intn(3) == 0 {
			return kir.CastTo(t, g.f32Expr(depth-1))
		}
		other := kir.U32
		if t == kir.U32 && g.cfg.Features.I32 {
			other = kir.I32
		}
		return kir.CastTo(t, g.intExpr(depth-1, other))
	default:
		return g.load(depth, t)
	}
}

var f32Consts = []float32{0, 1, -1, 0.5, 2, -2.5, 3.14159, 1e-6, 1e6, 1e30, 65504}

func (g *gen) f32Leaf() kir.Expr {
	switch g.r.Intn(4) {
	case 0:
		return kir.F(f32Consts[g.r.Intn(len(f32Consts))])
	case 1:
		if len(g.f32Vars) > 0 {
			return g.ref(g.f32Vars[g.r.Intn(len(g.f32Vars))])
		}
		fallthrough
	case 2:
		return kir.CastTo(kir.F32, g.intLeaf(g.intType()))
	default:
		return kir.F(g.r.Float32()*200 - 100)
	}
}

// f32Expr builds a random F32 expression. Only operations both pipelines
// evaluate with identical float32 rounding are drawn, so agreement is
// bit-for-bit, not approximate.
func (g *gen) f32Expr(depth int) kir.Expr {
	if depth <= 0 {
		return g.f32Leaf()
	}
	switch g.r.Intn(8) {
	case 0, 1:
		return g.f32Leaf()
	case 2, 3:
		ops := []kir.BinOp{kir.OpAdd, kir.OpSub, kir.OpMul, kir.OpDiv,
			kir.OpMin, kir.OpMax}
		return &kir.Bin{Op: ops[g.r.Intn(len(ops))],
			L: g.f32Expr(depth - 1), R: g.f32Expr(depth - 1)}
	case 4:
		if g.r.Intn(2) == 0 {
			return kir.Neg(g.f32Expr(depth - 1))
		}
		return kir.Abs(g.f32Expr(depth - 1))
	case 5:
		// Intrinsics over |x| keep sqrt/log in their real domain most of
		// the time; a NaN escaping is still deterministic on both sides.
		ops := []kir.UnOp{kir.OpSqrt, kir.OpRsqrt, kir.OpExp2, kir.OpLog2,
			kir.OpSin, kir.OpCos}
		return &kir.Un{Op: ops[g.r.Intn(len(ops))], X: kir.Abs(g.f32Expr(depth - 1))}
	case 6:
		return kir.Select(g.cond(depth-1), g.f32Expr(depth-1), g.f32Expr(depth-1))
	default:
		return kir.CastTo(kir.F32, g.intExpr(depth-1, g.intType()))
	}
}

// cond builds a Bool expression.
func (g *gen) cond(depth int) kir.Expr {
	ops := []kir.BinOp{kir.OpEq, kir.OpNe, kir.OpLt, kir.OpLe, kir.OpGt, kir.OpGe}
	mk := func() kir.Expr {
		if g.cfg.Features.F32 && g.r.Intn(4) == 0 {
			return &kir.Bin{Op: ops[g.r.Intn(len(ops))],
				L: g.f32Expr(depth), R: g.f32Expr(depth)}
		}
		t := g.intType()
		return &kir.Bin{Op: ops[g.r.Intn(len(ops))],
			L: g.intExpr(depth, t), R: g.intExpr(depth, g.intType())}
	}
	c := mk()
	switch g.r.Intn(4) {
	case 0:
		return kir.LAnd(c, mk())
	case 1:
		return kir.LOr(c, mk())
	case 2:
		return kir.Not(c)
	}
	return c
}
