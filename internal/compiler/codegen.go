package compiler

import (
	"fmt"
	"math"
	"strconv"

	"gpucmp/internal/kir"
	"gpucmp/internal/ptx"
)

// Config is the full declarative description of one compilation: the
// front-end personality plus the back-end pass pipeline. The zero Passes
// value means the default pipeline; ablation experiments and the fuzz
// oracle's miscompile bisection pass explicit subsets (or extra passes).
type Config struct {
	Personality Personality

	// Passes is the back-end pipeline; nil means DefaultPasses().
	Passes []Pass

	// Debug re-validates the kernel's structural invariants after every
	// pass, pinning a pipeline corruption to the pass that introduced it.
	Debug bool

	// Observer, when set, receives each pass's before/after instruction
	// census (`paper passes`). Observed compiles are not
	// cacheable: CompileCachedConfig rejects a non-nil Observer.
	Observer func(pass Pass, before, after *ptx.Stats)
}

func (c Config) passes() []Pass {
	if c.Passes == nil {
		return DefaultPasses()
	}
	return c.Passes
}

// Compile lowers one KIR kernel with the given front-end personality and
// runs the default shared PTXAS back-end pipeline over the result.
func Compile(k *kir.Kernel, p Personality) (*ptx.Kernel, error) {
	return CompileWithConfig(k, Config{Personality: p})
}

// CompileWithConfig lowers one KIR kernel under a full compile
// configuration. The produced kernel carries the remarks stream and the
// per-pass stats; given equal (kernel, Config) inputs the instruction
// stream is bit-identical across processes and goroutines.
func CompileWithConfig(k *kir.Kernel, cfg Config) (*ptx.Kernel, error) {
	if err := kir.Check(k); err != nil {
		return nil, err
	}
	p := cfg.Personality
	rem := &Remarks{}
	g := newGen(k, p)
	g.rem = rem
	g.prologue()
	g.block(k.Body)
	g.emit(ptx.NewInstruction(ptx.OpRet))
	if g.err != nil {
		return nil, g.err
	}
	out := &ptx.Kernel{
		Name:                k.Name,
		Toolchain:           p.Name,
		Instrs:              g.out,
		NumRegs:             g.maxReg,
		SharedBytes:         g.sharedBytes,
		LocalBytes:          g.localBytes,
		ConstBytes:          4 * len(k.Params),
		WarpWidthAssumption: k.WarpWidthAssumption,
	}
	for _, pa := range k.Params {
		space := ptx.SpaceGlobal
		switch pa.Space {
		case kir.Const:
			space = ptx.SpaceConst
		case kir.Texture:
			space = ptx.SpaceTex
		}
		out.Params = append(out.Params, ptx.Param{
			Name: pa.Name, Pointer: pa.Buffer, Space: space, Type: scalarType(pa.T),
		})
	}
	out.FrontEndStats = out.StaticStats()
	pl := Pipeline{Passes: cfg.passes(), Debug: cfg.Debug, Observer: cfg.Observer}
	stats, err := pl.Run(out, rem)
	if err != nil {
		return nil, err
	}
	out.PassStats = stats
	out.Remarks = rem.List()
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: internal error: %w", err)
	}
	return out, nil
}

// CompileModule lowers several kernels into one module.
func CompileModule(name string, kernels []*kir.Kernel, p Personality) (*ptx.Module, error) {
	m := ptx.NewModule(name)
	for _, k := range kernels {
		pk, err := Compile(k, p)
		if err != nil {
			return nil, err
		}
		m.Add(pk)
	}
	return m, nil
}

func scalarType(t kir.Type) ptx.ScalarType {
	switch t {
	case kir.U32:
		return ptx.U32
	case kir.I32:
		return ptx.S32
	case kir.F32:
		return ptx.F32
	default:
		return ptx.B32
	}
}

// value is a lowered expression: an operand plus ownership of the register
// (owned temps are returned to the allocator after their single use).
type value struct {
	op    ptx.Operand
	owned bool
	t     kir.Type
}

type cseEntry struct {
	reg   ptx.Reg
	ver   int
	depth int
	t     kir.Type
}

// cseKey names one value-numbered expression: which instruction shape it
// is, the fields of that instruction that decide its value, and its
// operands as they stood when it was lowered. Two keys are equal exactly
// when the two expressions would emit the same instruction over the same
// operand values, which is all the table needs; a comparable struct says
// that without formatting a string per expression node. Every field is four
// bytes wide so the struct has no padding and hashes as plain memory.
type cseKey struct {
	kind cseKind
	op   int32 // opcode (bin, un), comparison (setp), destination type (cvt) or space (ld)
	typ  int32 // operand type (bin, setp, un) or source type (cvt)
	l, r cseOperand
	off  int32 // ld: byte offset
}

type cseKind uint32

const (
	cseBin cseKind = iota + 1
	cseSetp
	cseUn
	cseCvt
	cseLd
	cseMovSpecial
)

// cseOperand is one source operand inside a cseKey. A register is named by
// number and version: the version counts the writes emitted so far, so a
// key made before a redefinition never equals one made after it.
type cseOperand struct {
	tag uint32 // cseImm, cseSpec or cseReg
	val uint32 // immediate bits, special register, or register number
	ver int32  // registers only
}

const (
	cseImm uint32 = iota + 1
	cseSpec
	cseReg
)

type gen struct {
	p   Personality
	k   *kir.Kernel
	out []ptx.Instruction
	err error

	nreg   int
	maxReg int
	free   []ptx.Reg
	state  []uint8 // 0 = in use, 1 = free
	vers   []int

	// Loop-aware release: a register allocated outside the rolled loop
	// currently being emitted must not be recycled inside it — a later
	// instruction in the body would clobber it on the back edge before an
	// earlier emitted use re-reads it. Such releases are deferred until
	// emission returns to the register's allocation nesting level.
	//
	// A register can also outlive the loop it was allocated in: a temporary
	// of the loop condition that a CSE entry made at the enclosing level
	// still holds. Its allocation depth then says nothing about a sibling
	// loop at the same depth, so exitLoop notes the enclosing level in
	// outlived (-1 = none) and a CSE hit — the only way such a register is
	// read again — moves the register there before the reader can be
	// emitted inside another loop.
	allocDepth  []int
	outlived    []int
	loopDepth   int
	pendRelease map[int][]ptx.Reg

	vars     map[string]ptx.Reg
	varTypes map[string]kir.Type
	paramIdx map[string]int
	paramReg map[string]ptx.Reg // CUDA cached params

	sharedOff   map[string]int32
	localOff    map[string]int32
	sharedBytes int
	localBytes  int

	cse        map[cseKey]cseEntry
	cseQueue   []cseKey        // insertion order, for pressure eviction
	protectVer map[ptx.Reg]int // regs kept alive because a CSE entry holds them
	deferred   map[ptx.Reg]bool
	depth      int

	guard    ptx.Reg // active guard predicate (NoReg when none)
	guardNeg bool

	// rem collects front-end remarks; nil is a valid no-op sink.
	rem *Remarks
}

func newGen(k *kir.Kernel, p Personality) *gen {
	g := &gen{
		p: p, k: k,
		vars:        make(map[string]ptx.Reg),
		varTypes:    make(map[string]kir.Type),
		paramIdx:    make(map[string]int),
		paramReg:    make(map[string]ptx.Reg),
		sharedOff:   make(map[string]int32),
		localOff:    make(map[string]int32),
		cse:         make(map[cseKey]cseEntry),
		protectVer:  make(map[ptx.Reg]int),
		deferred:    make(map[ptx.Reg]bool),
		pendRelease: make(map[int][]ptx.Reg),
		guard:       ptx.NoReg,
	}
	for i, pa := range k.Params {
		g.paramIdx[pa.Name] = i
	}
	for _, a := range k.SharedArrays {
		g.sharedOff[a.Name] = int32(g.sharedBytes)
		g.sharedBytes += a.Count * 4
	}
	for _, a := range k.LocalArrays {
		g.localOff[a.Name] = int32(g.localBytes)
		g.localBytes += a.Count * 4
	}
	return g
}

func (g *gen) errf(format string, args ...any) {
	if g.err == nil {
		g.err = fmt.Errorf("compiler: %s: "+format, append([]any{g.k.Name}, args...)...)
	}
}

// ---- register allocation ----

func (g *gen) alloc() ptx.Reg {
	for len(g.free) > 0 {
		r := g.free[len(g.free)-1]
		g.free = g.free[:len(g.free)-1]
		if g.state[r] == 1 {
			g.state[r] = 0
			g.allocDepth[r] = g.loopDepth
			g.outlived[r] = -1
			return r
		}
	}
	r := ptx.Reg(g.nreg)
	g.nreg++
	if g.nreg > g.maxReg {
		g.maxReg = g.nreg
	}
	g.state = append(g.state, 0)
	g.vers = append(g.vers, 0)
	g.allocDepth = append(g.allocDepth, g.loopDepth)
	g.outlived = append(g.outlived, -1)
	return r
}

// enterLoop/exitLoop bracket the emission of a rolled loop (head, body and
// back edge). exitLoop retries the releases that were deferred until this
// nesting level became current again.
func (g *gen) enterLoop() { g.loopDepth++ }

func (g *gen) exitLoop() {
	g.loopDepth--
	for r, d := range g.allocDepth {
		if d > g.loopDepth {
			g.outlived[r] = g.loopDepth
		}
	}
	pend := g.pendRelease[g.loopDepth]
	delete(g.pendRelease, g.loopDepth)
	for _, r := range pend {
		g.release(r)
	}
}

func (g *gen) release(r ptx.Reg) {
	if r == ptx.NoReg || g.state[r] == 1 {
		return
	}
	// A register backing a still-valid CSE entry must stay alive; its
	// release is deferred until the entry is dropped.
	if pv, ok := g.protectVer[r]; ok && pv == g.vers[r] {
		g.deferred[r] = true
		return
	}
	// A register from an outer nesting level stays live across this
	// loop's back edge; park its release until we return there.
	if g.allocDepth[r] < g.loopDepth {
		d := g.allocDepth[r]
		g.pendRelease[d] = append(g.pendRelease[d], r)
		return
	}
	g.state[r] = 1
	g.free = append(g.free, r)
}

// claim re-acquires a register found in a CSE entry that may have been
// released; the caller becomes its owner.
func (g *gen) claim(r ptx.Reg) bool {
	if g.state[r] == 1 {
		g.state[r] = 0
		return true
	}
	return false
}

func (g *gen) releaseVal(v value) {
	if v.owned && !v.op.IsImm && !v.op.IsSpec {
		g.release(v.op.Reg)
	}
}

// ---- emission ----

func (g *gen) emit(in ptx.Instruction) int {
	if in.Dst != ptx.NoReg {
		g.vers[in.Dst]++
	}
	if in.GuardPred == ptx.NoReg && g.guard != ptx.NoReg {
		in.GuardPred = g.guard
		in.GuardNeg = g.guardNeg
	}
	g.out = append(g.out, in)
	return len(g.out) - 1
}

func (g *gen) opKey(o ptx.Operand) cseOperand {
	switch {
	case o.IsImm:
		return cseOperand{tag: cseImm, val: o.Imm}
	case o.IsSpec:
		return cseOperand{tag: cseSpec, val: uint32(o.Spec)}
	default:
		return cseOperand{tag: cseReg, val: uint32(o.Reg), ver: int32(g.vers[o.Reg])}
	}
}

// cseLookup returns a cached register for the key if still valid.
func (g *gen) cseLookup(key cseKey) (value, bool) {
	if !g.p.CSE {
		return value{}, false
	}
	e, ok := g.cse[key]
	if !ok || g.vers[e.reg] != e.ver {
		return value{}, false
	}
	if d := g.outlived[e.reg]; d >= 0 {
		g.allocDepth[e.reg], g.outlived[e.reg] = d, -1
	}
	owned := g.claim(e.reg)
	if !owned && g.deferred[e.reg] {
		// The register is only alive because this entry's protection
		// deferred its release. Hand that deferred release to the caller:
		// otherwise a pressure eviction while the caller still holds the
		// operand would free the register mid-expression, and the allocator
		// could hand it to a sibling subexpression before this use is
		// emitted.
		delete(g.deferred, e.reg)
		owned = true
	}
	return value{op: ptx.R(e.reg), owned: owned, t: e.t}, true
}

func (g *gen) cseStore(key cseKey, r ptx.Reg, t kir.Type) {
	if !g.p.CSE {
		return
	}
	if g.p.MaxCSERegs > 0 {
		for len(g.protectVer) >= g.p.MaxCSERegs && len(g.cseQueue) > 0 {
			g.evictOldestCSE()
		}
	}
	g.cse[key] = cseEntry{reg: r, ver: g.vers[r], depth: g.depth, t: t}
	g.protectVer[r] = g.vers[r]
	g.cseQueue = append(g.cseQueue, key)
}

// evictOldestCSE drops the oldest still-live CSE entry and frees its
// register if its release had been deferred.
func (g *gen) evictOldestCSE() {
	for len(g.cseQueue) > 0 {
		key := g.cseQueue[0]
		g.cseQueue = g.cseQueue[1:]
		e, ok := g.cse[key]
		if !ok {
			continue
		}
		delete(g.cse, key)
		// One remark per eviction, and a tight window evicts at almost every
		// store: concatenated, not formatted.
		g.rem.add(PhaseFrontEnd, "CSE evicted r"+strconv.Itoa(int(e.reg))+
			" under register pressure (window "+strconv.Itoa(g.p.MaxCSERegs)+")")
		g.unprotect(e)
		return
	}
}

// unprotect releases a dropped entry's register protection.
func (g *gen) unprotect(e cseEntry) {
	if pv, ok := g.protectVer[e.reg]; ok && pv == e.ver {
		delete(g.protectVer, e.reg)
		if g.deferred[e.reg] {
			delete(g.deferred, e.reg)
			g.release(e.reg)
		}
	}
}

// dropCSEDeeperThan removes entries created inside divergent regions that
// have been left: their registers were only written in a subset of lanes.
// Registers whose release was deferred by a dropped entry are freed.
//
// The walk follows cseQueue (insertion order), not the map: releases push
// registers onto the allocator's free stack, so the iteration order decides
// which register later allocations receive — and with it the CSE keys of
// every subsequent expression. Map order would make codegen differ from
// process to process.
func (g *gen) dropCSEDeeperThan(depth int) {
	kept := g.cseQueue[:0]
	for _, k := range g.cseQueue {
		e, ok := g.cse[k]
		if !ok {
			continue // stale queue entry: already evicted or dropped
		}
		if e.depth > depth {
			delete(g.cse, k)
			g.unprotect(e)
		} else {
			kept = append(kept, k)
		}
	}
	g.cseQueue = kept
}

// ---- prologue / parameters ----

func (g *gen) prologue() {
	if !g.p.CacheParams {
		return
	}
	if len(g.k.Params) > 0 {
		g.rem.Addf(PhaseFrontEnd, "cached %d parameter(s) in registers at entry from the %s space",
			len(g.k.Params), g.p.ParamSpace)
	}
	for i, pa := range g.k.Params {
		r := g.alloc() // pinned for the kernel's lifetime
		ld := ptx.NewInstruction(ptx.OpLd)
		ld.Space = g.p.ParamSpace
		ld.Typ = scalarType(pa.T)
		if pa.Buffer {
			ld.Typ = ptx.U32 // base addresses are 32-bit in the model
		}
		ld.Dst = r
		ld.Off = int32(4 * i)
		g.emit(ld)
		g.paramReg[pa.Name] = r
	}
}

// paramValue yields the operand holding a parameter's value.
func (g *gen) paramValue(name string) value {
	p := g.k.Param(name)
	if p == nil {
		g.errf("unknown parameter %q", name)
		return value{op: ptx.ImmU(0)}
	}
	if g.p.CacheParams {
		return value{op: ptx.R(g.paramReg[name]), t: p.T}
	}
	// OpenCL style: reload from the constant bank at each use.
	r := g.alloc()
	ld := ptx.NewInstruction(ptx.OpLd)
	ld.Space = g.p.ParamSpace
	ld.Typ = scalarType(p.T)
	if p.Buffer {
		ld.Typ = ptx.U32
	}
	ld.Dst = r
	ld.Off = int32(4 * g.paramIdx[name])
	g.emit(ld)
	return value{op: ptx.R(r), owned: true, t: p.T}
}

// ---- expression lowering ----

func isPow2(v uint32) bool { return v != 0 && v&(v-1) == 0 }

func log2u(v uint32) uint32 {
	n := uint32(0)
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// lower evaluates e and returns its value. hint, when not NoReg, requests
// that the result be produced in that register (used to avoid copies on
// assignments in the non-MovCopies personality); hint is only honoured for
// instruction-producing expressions.
func (g *gen) lower(e kir.Expr, hint ptx.Reg) value {
	switch e := e.(type) {
	case *kir.ConstInt:
		return value{op: ptx.ImmU(uint32(e.V)), t: e.T}
	case *kir.ConstFloat:
		return value{op: ptx.ImmU(math.Float32bits(e.V)), t: kir.F32}
	case *kir.ParamRef:
		return g.paramValue(e.Name)
	case *kir.VarRef:
		r, ok := g.vars[e.Name]
		if !ok {
			g.errf("use of unbound variable %q", e.Name)
			return value{op: ptx.ImmU(0)}
		}
		return value{op: ptx.R(r), t: g.varTypes[e.Name]}
	case *kir.Builtin:
		return g.lowerBuiltin(e, hint)
	case *kir.Bin:
		return g.lowerBin(e, hint)
	case *kir.Un:
		return g.lowerUn(e, hint)
	case *kir.Sel:
		return g.lowerSel(e, hint)
	case *kir.Cast:
		return g.lowerCast(e, hint)
	case *kir.Load:
		return g.lowerLoad(e, hint)
	default:
		g.errf("unknown expression %T", e)
		return value{op: ptx.ImmU(0)}
	}
}

func (g *gen) dst(hint ptx.Reg) (ptx.Reg, bool) {
	if hint != ptx.NoReg {
		return hint, false
	}
	return g.alloc(), true
}

func (g *gen) lowerBuiltin(e *kir.Builtin, hint ptx.Reg) value {
	var sp ptx.SpecialReg
	switch e.Kind {
	case kir.TidX:
		sp = ptx.SrTidX
	case kir.TidY:
		sp = ptx.SrTidY
	case kir.NtidX:
		sp = ptx.SrNtidX
	case kir.NtidY:
		sp = ptx.SrNtidY
	case kir.CtaidX:
		sp = ptx.SrCtaidX
	case kir.CtaidY:
		sp = ptx.SrCtaidY
	case kir.NctaidX:
		sp = ptx.SrNctaidX
	case kir.NctaidY:
		sp = ptx.SrNctaidY
	case kir.WarpSize:
		sp = ptx.SrWarpSize
	default:
		g.errf("unknown builtin %v", e.Kind)
	}
	key := cseKey{kind: cseMovSpecial, l: g.opKey(ptx.Sp(sp))}
	if v, ok := g.cseLookup(key); ok && hint == ptx.NoReg {
		return v
	}
	d, owned := g.dst(hint)
	mov := ptx.NewInstruction(ptx.OpMov)
	mov.Typ = ptx.U32
	mov.Dst = d
	mov.Src[0] = ptx.Sp(sp)
	g.emit(mov)
	g.cseStore(key, d, kir.U32)
	return value{op: ptx.R(d), owned: owned, t: kir.U32}
}

var binOpTable = map[kir.BinOp]ptx.Opcode{
	kir.OpAdd: ptx.OpAdd, kir.OpSub: ptx.OpSub, kir.OpMul: ptx.OpMul,
	kir.OpDiv: ptx.OpDiv, kir.OpRem: ptx.OpRem,
	kir.OpMin: ptx.OpMin, kir.OpMax: ptx.OpMax,
	kir.OpAnd: ptx.OpAnd, kir.OpOr: ptx.OpOr, kir.OpXor: ptx.OpXor,
	kir.OpShl: ptx.OpShl, kir.OpShr: ptx.OpShr,
}

var cmpTable = map[kir.BinOp]ptx.CmpOp{
	kir.OpEq: ptx.CmpEQ, kir.OpNe: ptx.CmpNE, kir.OpLt: ptx.CmpLT,
	kir.OpLe: ptx.CmpLE, kir.OpGt: ptx.CmpGT, kir.OpGe: ptx.CmpGE,
}

// foldConst evaluates integer-constant binary expressions at compile time.
func foldConst(op kir.BinOp, l, r *kir.ConstInt) (uint32, bool) {
	a, b := uint32(l.V), uint32(r.V)
	signed := l.T == kir.I32
	switch op {
	case kir.OpAdd:
		return a + b, true
	case kir.OpSub:
		return a - b, true
	case kir.OpMul:
		return a * b, true
	case kir.OpDiv:
		if b == 0 {
			return 0, false
		}
		if signed {
			return uint32(int32(a) / int32(b)), true
		}
		return a / b, true
	case kir.OpRem:
		if b == 0 {
			return 0, false
		}
		if signed {
			return uint32(int32(a) % int32(b)), true
		}
		return a % b, true
	case kir.OpAnd:
		return a & b, true
	case kir.OpOr:
		return a | b, true
	case kir.OpXor:
		return a ^ b, true
	case kir.OpShl:
		return a << (b & 31), true
	case kir.OpShr:
		if signed {
			return uint32(int32(a) >> (b & 31)), true
		}
		return a >> (b & 31), true
	case kir.OpMin:
		if signed {
			if int32(a) < int32(b) {
				return a, true
			}
			return b, true
		}
		if a < b {
			return a, true
		}
		return b, true
	case kir.OpMax:
		if signed {
			if int32(a) > int32(b) {
				return a, true
			}
			return b, true
		}
		if a > b {
			return a, true
		}
		return b, true
	}
	return 0, false
}

func (g *gen) lowerBin(e *kir.Bin, hint ptx.Reg) value {
	// Constant folding (both personalities fold literals).
	if li, ok := e.L.(*kir.ConstInt); ok {
		if ri, ok2 := e.R.(*kir.ConstInt); ok2 && !e.Op.IsCompare() && !e.Op.IsLogical() {
			if v, folded := foldConst(e.Op, li, ri); folded {
				return value{op: ptx.ImmU(v), t: li.T}
			}
		}
	}

	if e.Op.IsCompare() {
		return g.lowerCmp(e, hint)
	}
	if e.Op.IsLogical() {
		l := g.lower(e.L, ptx.NoReg)
		r := g.lower(e.R, ptx.NoReg)
		op := ptx.OpAnd
		if e.Op == kir.OpLOr {
			op = ptx.OpOr
		}
		return g.binInstr(op, ptx.Pred, l, r, hint, kir.Bool)
	}

	rt := e.Type()
	st := scalarType(rt)
	op := binOpTable[e.Op]

	l := g.lower(e.L, ptx.NoReg)
	r := g.lower(e.R, ptx.NoReg)

	// Strength reduction on integer ops with power-of-two immediates.
	if g.p.StrengthReduce && rt != kir.F32 && r.op.IsImm && isPow2(r.op.Imm) {
		switch e.Op {
		case kir.OpMul:
			op = ptx.OpShl
			g.rem.Addf(PhaseFrontEnd, "strength-reduced mul by %d into shl", r.op.Imm)
			r.op = ptx.ImmU(log2u(r.op.Imm))
		case kir.OpDiv:
			if rt == kir.U32 {
				op = ptx.OpShr
				g.rem.Addf(PhaseFrontEnd, "strength-reduced div by %d into shr", r.op.Imm)
				r.op = ptx.ImmU(log2u(r.op.Imm))
			}
		case kir.OpRem:
			if rt == kir.U32 {
				op = ptx.OpAnd
				g.rem.Addf(PhaseFrontEnd, "strength-reduced rem by %d into and", r.op.Imm)
				r.op = ptx.ImmU(r.op.Imm - 1)
			}
		}
	}
	return g.binInstr(op, st, l, r, hint, rt)
}

// binInstr emits a two-source instruction with CSE.
func (g *gen) binInstr(op ptx.Opcode, st ptx.ScalarType, l, r value, hint ptx.Reg, rt kir.Type) value {
	key := cseKey{kind: cseBin, op: int32(op), typ: int32(st), l: g.opKey(l.op), r: g.opKey(r.op)}
	if v, ok := g.cseLookup(key); ok && hint == ptx.NoReg {
		g.releaseVal(l)
		g.releaseVal(r)
		v.t = rt
		return v
	}
	d, owned := g.dst(hint)
	in := ptx.NewInstruction(op)
	in.Typ = st
	in.Dst = d
	in.Src[0] = l.op
	in.Src[1] = r.op
	g.emit(in)
	g.releaseVal(l)
	g.releaseVal(r)
	g.cseStore(key, d, rt)
	return value{op: ptx.R(d), owned: owned, t: rt}
}

func (g *gen) lowerCmp(e *kir.Bin, hint ptx.Reg) value {
	l := g.lower(e.L, ptx.NoReg)
	r := g.lower(e.R, ptx.NoReg)
	st := scalarType(e.L.Type())
	if lt := e.L.Type(); lt == kir.U32 || lt == kir.I32 {
		// Integer compares use the left operand's signedness.
		st = scalarType(lt)
	}
	cmp := cmpTable[e.Op]
	key := cseKey{kind: cseSetp, op: int32(cmp), typ: int32(st), l: g.opKey(l.op), r: g.opKey(r.op)}
	if v, ok := g.cseLookup(key); ok && hint == ptx.NoReg {
		g.releaseVal(l)
		g.releaseVal(r)
		v.t = kir.Bool
		return v
	}
	d, owned := g.dst(hint)
	in := ptx.NewInstruction(ptx.OpSetp)
	in.Typ = st
	in.Cmp = cmp
	in.Dst = d
	in.Src[0] = l.op
	in.Src[1] = r.op
	g.emit(in)
	g.releaseVal(l)
	g.releaseVal(r)
	g.cseStore(key, d, kir.Bool)
	return value{op: ptx.R(d), owned: owned, t: kir.Bool}
}

var unOpTable = map[kir.UnOp]ptx.Opcode{
	kir.OpNeg: ptx.OpNeg, kir.OpAbs: ptx.OpAbs, kir.OpSqrt: ptx.OpSqrt,
	kir.OpRsqrt: ptx.OpRsqrt, kir.OpSin: ptx.OpSin, kir.OpCos: ptx.OpCos,
	kir.OpExp2: ptx.OpEx2, kir.OpLog2: ptx.OpLg2,
}

func (g *gen) lowerUn(e *kir.Un, hint ptx.Reg) value {
	x := g.lower(e.X, ptx.NoReg)
	rt := e.Type()
	var op ptx.Opcode
	st := scalarType(rt)
	if e.Op == kir.OpNot {
		if rt == kir.Bool {
			// !p lowered as xor p, 1.
			return g.binInstr(ptx.OpXor, ptx.Pred, x, value{op: ptx.ImmU(1), t: kir.Bool}, hint, kir.Bool)
		}
		op = ptx.OpNot
	} else {
		op = unOpTable[e.Op]
	}
	key := cseKey{kind: cseUn, op: int32(op), typ: int32(st), l: g.opKey(x.op)}
	if v, ok := g.cseLookup(key); ok && hint == ptx.NoReg {
		g.releaseVal(x)
		v.t = rt
		return v
	}
	d, owned := g.dst(hint)
	in := ptx.NewInstruction(op)
	in.Typ = st
	in.Dst = d
	in.Src[0] = x.op
	g.emit(in)
	g.releaseVal(x)
	g.cseStore(key, d, rt)
	return value{op: ptx.R(d), owned: owned, t: rt}
}

func (g *gen) lowerSel(e *kir.Sel, hint ptx.Reg) value {
	c := g.lower(e.Cond, ptx.NoReg)
	a := g.lower(e.A, ptx.NoReg)
	b := g.lower(e.B, ptx.NoReg)
	if c.op.IsImm || c.op.IsSpec {
		// selp needs a predicate register; materialise immediates.
		c = g.movToReg(c)
	}
	rt := e.A.Type()
	d, owned := g.dst(hint)
	in := ptx.NewInstruction(ptx.OpSelp)
	in.Typ = scalarType(rt)
	in.Dst = d
	in.Src[0] = a.op
	in.Src[1] = b.op
	in.Src[2] = ptx.R(c.op.Reg)
	g.emit(in)
	g.releaseVal(a)
	g.releaseVal(b)
	g.releaseVal(c)
	return value{op: ptx.R(d), owned: owned, t: rt}
}

func (g *gen) movToReg(v value) value {
	d := g.alloc()
	mov := ptx.NewInstruction(ptx.OpMov)
	mov.Typ = ptx.B32
	mov.Dst = d
	mov.Src[0] = v.op
	g.emit(mov)
	g.releaseVal(v)
	return value{op: ptx.R(d), owned: true, t: v.t}
}

func (g *gen) lowerCast(e *kir.Cast, hint ptx.Reg) value {
	x := g.lower(e.X, ptx.NoReg)
	from := scalarType(e.X.Type())
	to := scalarType(e.To)
	if from == to {
		if hint == ptx.NoReg {
			x.t = e.To
			return x
		}
	}
	key := cseKey{kind: cseCvt, op: int32(to), typ: int32(from), l: g.opKey(x.op)}
	if v, ok := g.cseLookup(key); ok && hint == ptx.NoReg {
		g.releaseVal(x)
		v.t = e.To
		return v
	}
	d, owned := g.dst(hint)
	in := ptx.NewInstruction(ptx.OpCvt)
	in.Typ = to
	in.SrcTyp = from
	in.Dst = d
	in.Src[0] = x.op
	g.emit(in)
	g.releaseVal(x)
	g.cseStore(key, d, e.To)
	return value{op: ptx.R(d), owned: owned, t: e.To}
}

// address lowers buf[idx] into (address operand, byte offset, space).
func (g *gen) address(buf string, idx kir.Expr) (value, int32, ptx.Space) {
	space, err := g.k.SpaceOf(buf)
	if err != nil {
		g.errf("%v", err)
		return value{op: ptx.ImmU(0)}, 0, ptx.SpaceGlobal
	}
	var psp ptx.Space
	switch space {
	case kir.Global:
		psp = ptx.SpaceGlobal
	case kir.Const:
		psp = ptx.SpaceConst
	case kir.Texture:
		psp = ptx.SpaceTex
	case kir.Shared:
		psp = ptx.SpaceShared
	case kir.Local:
		psp = ptx.SpaceLocal
	}

	// Constant index folds entirely into the offset.
	constIdx, idxIsConst := int64(-1), false
	if ci, ok := idx.(*kir.ConstInt); ok {
		constIdx, idxIsConst = ci.V, true
	}

	switch space {
	case kir.Shared, kir.Local:
		var segOff int32
		if space == kir.Shared {
			segOff = g.sharedOff[buf]
		} else {
			segOff = g.localOff[buf]
		}
		if idxIsConst {
			return value{op: ptx.ImmU(0)}, segOff + int32(constIdx*4), psp
		}
		iv := g.lower(idx, ptx.NoReg)
		scaled := g.scaleBy4(iv)
		return scaled, segOff, psp
	default:
		base := g.paramValue(buf)
		if idxIsConst {
			return base, int32(constIdx * 4), psp
		}
		iv := g.lower(idx, ptx.NoReg)
		scaled := g.scaleBy4(iv)
		sum := g.binInstr(ptx.OpAdd, ptx.U32, base, scaled, ptx.NoReg, kir.U32)
		return sum, 0, psp
	}
}

// scaleBy4 multiplies an index by the element width (4 bytes).
func (g *gen) scaleBy4(iv value) value {
	if iv.op.IsImm {
		return value{op: ptx.ImmU(iv.op.Imm * 4), t: kir.U32}
	}
	if g.p.StrengthReduce {
		return g.binInstr(ptx.OpShl, ptx.U32, iv, value{op: ptx.ImmU(2), t: kir.U32}, ptx.NoReg, kir.U32)
	}
	return g.binInstr(ptx.OpMul, ptx.U32, iv, value{op: ptx.ImmU(4), t: kir.U32}, ptx.NoReg, kir.U32)
}

func (g *gen) lowerLoad(e *kir.Load, hint ptx.Reg) value {
	addr, off, space := g.address(e.Buf, e.Index)
	elem, _ := g.k.ElemType(e.Buf)
	// Read-only spaces are safe to CSE; mutable spaces are not.
	cacheable := space == ptx.SpaceConst || space == ptx.SpaceTex || space == ptx.SpaceParam
	key := cseKey{kind: cseLd, op: int32(space), l: g.opKey(addr.op), off: off}
	if cacheable && hint == ptx.NoReg {
		if v, ok := g.cseLookup(key); ok {
			g.releaseVal(addr)
			v.t = elem
			return v
		}
	}
	d, owned := g.dst(hint)
	op := ptx.OpLd
	if space == ptx.SpaceTex {
		op = ptx.OpTex
	}
	in := ptx.NewInstruction(op)
	in.Space = space
	in.Typ = scalarType(elem)
	in.Dst = d
	in.Src[0] = addr.op
	in.Off = off
	g.emit(in)
	g.releaseVal(addr)
	if cacheable {
		g.cseStore(key, d, elem)
	}
	return value{op: ptx.R(d), owned: owned, t: elem}
}
