package compiler

import (
	"gpucmp/internal/kir"
	"gpucmp/internal/ptx"
)

// block lowers a statement list inside its own variable scope.
func (g *gen) block(stmts []kir.Stmt) {
	type saved struct {
		name string
		reg  ptx.Reg
		t    kir.Type
		had  bool
	}
	var declared []saved
	for _, s := range stmts {
		if g.err != nil {
			return
		}
		switch s := s.(type) {
		case *kir.DeclStmt:
			old, had := g.vars[s.Name]
			oldT := g.varTypes[s.Name]
			declared = append(declared, saved{s.Name, old, oldT, had})
			g.declare(s.Name, s.T, s.Init)
		case *kir.AssignStmt:
			g.assign(s.Name, s.Value)
		case *kir.StoreStmt:
			g.store(s)
		case *kir.AtomicStmt:
			g.atomic(s)
		case *kir.IfStmt:
			g.ifStmt(s)
		case *kir.ForStmt:
			g.forStmt(s)
		case *kir.BarrierStmt:
			g.emit(ptx.NewInstruction(ptx.OpBar))
		default:
			g.errf("unknown statement %T", s)
		}
	}
	// Close the scope: release registers of variables declared here.
	for i := len(declared) - 1; i >= 0; i-- {
		d := declared[i]
		if r, ok := g.vars[d.name]; ok {
			g.release(r)
		}
		if d.had {
			g.vars[d.name] = d.reg
			g.varTypes[d.name] = d.t
		} else {
			delete(g.vars, d.name)
			delete(g.varTypes, d.name)
		}
	}
}

// declare binds a new variable register and initialises it.
func (g *gen) declare(name string, t kir.Type, init kir.Expr) {
	r := g.alloc()
	g.vars[name] = r
	g.varTypes[name] = t
	g.initInto(r, t, init)
}

// initInto materialises init into register r, honouring the personality's
// copy style.
func (g *gen) initInto(r ptx.Reg, t kir.Type, init kir.Expr) {
	if g.p.MovCopies {
		v := g.lower(init, ptx.NoReg)
		mov := ptx.NewInstruction(ptx.OpMov)
		mov.Typ = scalarType(t)
		mov.Dst = r
		mov.Src[0] = v.op
		g.emit(mov)
		g.releaseVal(v)
		return
	}
	v := g.lower(init, r)
	if !v.op.IsImm && !v.op.IsSpec && v.op.Reg == r {
		return // produced in place
	}
	mov := ptx.NewInstruction(ptx.OpMov)
	mov.Typ = scalarType(t)
	mov.Dst = r
	mov.Src[0] = v.op
	g.emit(mov)
	g.releaseVal(v)
}

func (g *gen) assign(name string, val kir.Expr) {
	r, ok := g.vars[name]
	if !ok {
		g.errf("assignment to unbound variable %q", name)
		return
	}
	g.initInto(r, g.varTypes[name], val)
}

func (g *gen) store(s *kir.StoreStmt) {
	v := g.lower(s.Value, ptx.NoReg)
	if v.op.IsSpec {
		v = g.movToReg(v)
	}
	addr, off, space := g.address(s.Buf, s.Index)
	elem, _ := g.k.ElemType(s.Buf)
	st := ptx.NewInstruction(ptx.OpSt)
	st.Space = space
	st.Typ = scalarType(elem)
	st.Src[0] = addr.op
	st.Src[1] = v.op
	st.Off = off
	g.emit(st)
	g.releaseVal(addr)
	g.releaseVal(v)
}

func (g *gen) atomic(s *kir.AtomicStmt) {
	v := g.lower(s.Value, ptx.NoReg)
	addr, off, space := g.address(s.Buf, s.Index)
	at := ptx.NewInstruction(ptx.OpAtom)
	at.Space = space
	at.Typ = ptx.U32
	switch s.Op {
	case kir.AtomicAdd:
		at.Atom = ptx.AtomAdd
	case kir.AtomicOr:
		at.Atom = ptx.AtomOr
	case kir.AtomicMax:
		at.Atom = ptx.AtomMax
	case kir.AtomicExch:
		at.Atom = ptx.AtomExch
	}
	d := g.alloc()
	at.Dst = d
	at.Src[0] = addr.op
	at.Src[1] = v.op
	at.Off = off
	g.emit(at)
	g.releaseVal(addr)
	g.releaseVal(v)
	if s.Result != "" {
		r, ok := g.vars[s.Result]
		if !ok {
			g.errf("atomic result variable %q unbound", s.Result)
			return
		}
		mov := ptx.NewInstruction(ptx.OpMov)
		mov.Typ = ptx.U32
		mov.Dst = r
		mov.Src[0] = ptx.R(d)
		g.emit(mov)
	}
	g.release(d)
}

// ---- if lowering ----

// pureAssignBody reports whether stmts are only scalar assignments with
// load-free right-hand sides — the shape the OpenCL front-end if-converts
// into setp+selp chains.
func pureAssignBody(stmts []kir.Stmt) bool {
	for _, s := range stmts {
		a, ok := s.(*kir.AssignStmt)
		if !ok {
			return false
		}
		if !pureExpr(a.Value) {
			return false
		}
	}
	return true
}

func pureExpr(e kir.Expr) bool {
	switch e := e.(type) {
	case *kir.Load:
		return false
	case *kir.Bin:
		return pureExpr(e.L) && pureExpr(e.R)
	case *kir.Un:
		return pureExpr(e.X)
	case *kir.Sel:
		return pureExpr(e.Cond) && pureExpr(e.A) && pureExpr(e.B)
	case *kir.Cast:
		return pureExpr(e.X)
	default:
		return true
	}
}

// simpleBody reports whether stmts contain no nested control flow, barriers
// or atomics — the shape the CUDA front-end predicates with guard bits.
func simpleBody(stmts []kir.Stmt) bool {
	for _, s := range stmts {
		switch s.(type) {
		case *kir.IfStmt, *kir.ForStmt, *kir.BarrierStmt, *kir.AtomicStmt:
			return false
		}
	}
	return true
}

func (g *gen) ifStmt(s *kir.IfStmt) {
	pv := g.lower(s.Cond, ptx.NoReg)
	if pv.op.IsImm || pv.op.IsSpec {
		pv = g.movToReg(pv)
	}
	pred := pv.op.Reg

	// OpenCL personality: if-convert pure single-armed conditionals.
	if g.p.SelpPureIf && len(s.Else) == 0 && len(s.Then) <= g.p.MaxSelpAssigns && pureAssignBody(s.Then) {
		g.rem.Addf(PhaseFrontEnd, "if-converted %d assignment(s) into setp+selp chain", len(s.Then))
		g.depth++
		for _, st := range s.Then {
			a := st.(*kir.AssignStmt)
			r, ok := g.vars[a.Name]
			if !ok {
				g.errf("assignment to unbound variable %q", a.Name)
				return
			}
			nv := g.lower(a.Value, ptx.NoReg)
			sel := ptx.NewInstruction(ptx.OpSelp)
			sel.Typ = scalarType(g.varTypes[a.Name])
			sel.Dst = r
			sel.Src[0] = nv.op
			sel.Src[1] = ptx.R(r)
			sel.Src[2] = ptx.R(pred)
			g.emit(sel)
			g.releaseVal(nv)
		}
		g.depth--
		g.dropCSEDeeperThan(g.depth)
		g.releaseVal(pv)
		return
	}

	// CUDA personality: guard small branch-free bodies with the predicate.
	if g.p.GuardSmallIf && len(s.Else) == 0 && simpleBody(s.Then) &&
		kir.CountNodes(s.Then) <= g.p.MaxGuardInstrs*3 && g.guard == ptx.NoReg {
		g.rem.Addf(PhaseFrontEnd, "predicated %d-node if-body with guard p%d (no branch emitted)",
			kir.CountNodes(s.Then), pred)
		g.depth++
		g.guard = pred
		g.guardNeg = false
		g.block(s.Then)
		g.guard = ptx.NoReg
		g.depth--
		g.dropCSEDeeperThan(g.depth)
		g.releaseVal(pv)
		return
	}

	// General branch form.
	br := ptx.NewInstruction(ptx.OpBra)
	br.GuardPred = pred
	br.GuardNeg = true
	braIdx := g.emit(br)

	g.depth++
	g.block(s.Then)
	g.depth--
	g.dropCSEDeeperThan(g.depth)

	if len(s.Else) == 0 {
		join := len(g.out)
		g.out[braIdx].Target = join
		g.out[braIdx].Join = join
	} else {
		skip := ptx.NewInstruction(ptx.OpBra)
		skipIdx := g.emit(skip)
		elseStart := len(g.out)
		g.out[braIdx].Target = elseStart

		g.depth++
		g.block(s.Else)
		g.depth--
		g.dropCSEDeeperThan(g.depth)

		join := len(g.out)
		g.out[braIdx].Join = join
		g.out[skipIdx].Target = join
		g.out[skipIdx].Join = join
	}
	g.releaseVal(pv)
}

// ---- for lowering and unrolling ----

// bodyMutatesLimit reports whether the loop body assigns any variable the
// limit (or step) expression reads.
func bodyMutatesLimit(s *kir.ForStmt) bool {
	// Memory-dependent bounds are conservatively treated as mutable.
	if hasLoad(s.Limit) || hasLoad(s.Step) {
		return true
	}
	reads := map[string]bool{}
	kir.ReadVars(s.Limit, reads)
	kir.ReadVars(s.Step, reads)
	for name := range reads {
		if kir.AssignsVar(s.Body, name) {
			return true
		}
	}
	return false
}

func hasLoad(e kir.Expr) bool {
	switch e := e.(type) {
	case nil:
		return false
	case *kir.Load:
		return true
	case *kir.Bin:
		return hasLoad(e.L) || hasLoad(e.R)
	case *kir.Un:
		return hasLoad(e.X)
	case *kir.Sel:
		return hasLoad(e.Cond) || hasLoad(e.A) || hasLoad(e.B)
	case *kir.Cast:
		return hasLoad(e.X)
	default:
		return false
	}
}

func constVal(e kir.Expr) (int64, bool) {
	if c, ok := e.(*kir.ConstInt); ok {
		return c.V, true
	}
	return 0, false
}

func (g *gen) forStmt(s *kir.ForStmt) {
	init, initConst := constVal(s.Init)
	limit, limitConst := constVal(s.Limit)
	step, stepConst := constVal(s.Step)
	bodyAssignsVar := kir.AssignsVar(s.Body, s.Var)

	trips := int64(-1)
	if initConst && limitConst && stepConst && step > 0 && !bodyAssignsVar {
		if limit <= init {
			trips = 0
		} else {
			trips = (limit - init + step - 1) / step
		}
	}

	// Full unrolling: requested by pragma, or automatic (CUDA) for small
	// constant-trip loops.
	if trips >= 0 {
		wantFull := g.p.HonorUnrollPragma && (s.Unroll == kir.UnrollFull || int64(s.Unroll) >= trips && s.Unroll > 0)
		autoFull := g.p.AutoUnrollTrips > 0 && trips <= int64(g.p.AutoUnrollTrips) &&
			trips*int64(kir.CountNodes(s.Body)) <= int64(g.p.AutoUnrollMaxNodes)
		if wantFull || autoFull {
			how := "by pragma"
			if !wantFull {
				how = "automatically"
			}
			g.rem.Addf(PhaseFrontEnd, "fully unrolled loop over %s by %d trip(s) %s", s.Var, trips, how)
			for t := int64(0); t < trips; t++ {
				iv := &kir.ConstInt{T: s.T, V: init + t*step}
				g.block(kir.SubstVar(s.Body, s.Var, iv))
			}
			return
		}
	}

	// Partial unrolling by pragma factor N (runtime or constant bounds,
	// constant positive step, no assignment to the loop variable, and a
	// limit expression the body cannot mutate — otherwise a group of N
	// copies could overrun where the rolled loop would have stopped).
	if g.p.HonorUnrollPragma && s.Unroll > 1 && stepConst && step > 0 && !bodyAssignsVar &&
		!bodyMutatesLimit(s) {
		g.partialUnroll(s, step)
		return
	}

	// Rolled loop.
	r := g.alloc()
	g.vars[s.Var] = r
	g.varTypes[s.Var] = s.T
	g.initInto(r, s.T, s.Init)
	g.rolledLoop(s.Var, s.T,
		&kir.Bin{Op: kir.OpLt, L: &kir.VarRef{Name: s.Var, T: s.T}, R: s.Limit},
		s.Body, s.Step)
	delete(g.vars, s.Var)
	delete(g.varTypes, s.Var)
	g.release(r)
}

// partialUnroll lowers `for v := init; v < limit; v += step` with pragma
// factor n into a main loop processing n iterations per trip plus a
// remainder loop.
func (g *gen) partialUnroll(s *kir.ForStmt, step int64) {
	n := int64(s.Unroll)
	g.rem.Addf(PhaseFrontEnd, "partially unrolled loop over %s by pragma factor %d", s.Var, n)
	r := g.alloc()
	g.vars[s.Var] = r
	g.varTypes[s.Var] = s.T
	g.initInto(r, s.T, s.Init)

	vref := &kir.VarRef{Name: s.Var, T: s.T}

	// Main loop: while v + (n-1)*step < limit, run n substituted copies.
	mainBody := make([]kir.Stmt, 0, int(n)*len(s.Body))
	for k := int64(0); k < n; k++ {
		var iv kir.Expr = vref
		if k > 0 {
			iv = &kir.Bin{Op: kir.OpAdd, L: kir.CloneExpr(vref), R: &kir.ConstInt{T: s.T, V: k * step}}
		}
		mainBody = append(mainBody, kir.SubstVar(s.Body, s.Var, iv)...)
	}
	mainCond := &kir.Bin{Op: kir.OpLt,
		L: &kir.Bin{Op: kir.OpAdd, L: kir.CloneExpr(vref), R: &kir.ConstInt{T: s.T, V: (n - 1) * step}},
		R: s.Limit}
	if g.p.SpillOnUnroll && g.p.SpillsPerCopy > 0 {
		// Spill volume tracks the replicated live set: bigger bodies
		// spill more per copy.
		perCopy := kir.CountNodes(s.Body) / 8
		if perCopy < g.p.SpillsPerCopy {
			perCopy = g.p.SpillsPerCopy
		}
		g.rolledLoopSpilled(s.Var, s.T, mainCond, mainBody, &kir.ConstInt{T: s.T, V: n * step}, int(n), perCopy)
	} else {
		g.rolledLoop(s.Var, s.T, mainCond, mainBody, &kir.ConstInt{T: s.T, V: n * step})
	}

	// Remainder loop.
	remCond := &kir.Bin{Op: kir.OpLt, L: kir.CloneExpr(vref), R: kir.CloneExpr(s.Limit)}
	g.rolledLoop(s.Var, s.T, remCond, s.Body, s.Step)

	delete(g.vars, s.Var)
	delete(g.varTypes, s.Var)
	g.release(r)
}

// rolledLoopSpilled emits the main loop of a register-pressure-naive
// partial unroll: the replicated body runs with SpillsPerCopy*copies
// spill/reload round trips through per-thread local memory appended, the
// register traffic a naive unroller generates when the live set of the
// replicated copies no longer fits the register file.
func (g *gen) rolledLoopSpilled(varName string, t kir.Type, cond kir.Expr, body []kir.Stmt, step kir.Expr, copies, perCopy int) {
	spills := perCopy * (copies - 1)
	if spills <= 0 {
		g.rolledLoop(varName, t, cond, body, step)
		return
	}
	// Reserve local slots for the spilled values.
	spillOff := int32(g.localBytes)
	g.localBytes += spills * 4
	for c := 1; c < copies; c++ {
		g.rem.Addf(PhaseFrontEnd, "spill inserted for unroll copy %d (%d round trip(s) through local memory)",
			c, perCopy)
	}

	g.enterLoop()
	g.redefineLoopCarried(varName, body)
	head := len(g.out)
	pv := g.lower(cond, ptx.NoReg)
	if pv.op.IsImm || pv.op.IsSpec {
		pv = g.movToReg(pv)
	}
	exitBr := ptx.NewInstruction(ptx.OpBra)
	exitBr.GuardPred = pv.op.Reg
	exitBr.GuardNeg = true
	exitIdx := g.emit(exitBr)
	g.releaseVal(pv)

	g.depth++
	g.block(body)

	// Spill/reload round trips on the loop variable's register.
	r := g.vars[varName]
	for i := 0; i < spills; i++ {
		st := ptx.NewInstruction(ptx.OpSt)
		st.Space = ptx.SpaceLocal
		st.Typ = ptx.U32
		st.Src[0] = ptx.ImmU(0)
		st.Src[1] = ptx.R(r)
		st.Off = spillOff + int32(4*i)
		g.emit(st)
		ld := ptx.NewInstruction(ptx.OpLd)
		ld.Space = ptx.SpaceLocal
		ld.Typ = ptx.U32
		ld.Dst = r
		ld.Src[0] = ptx.ImmU(0)
		ld.Off = spillOff + int32(4*i)
		g.emit(ld)
	}

	sv := g.lower(step, ptx.NoReg)
	add := ptx.NewInstruction(ptx.OpAdd)
	add.Typ = scalarType(t)
	add.Dst = r
	add.Src[0] = ptx.R(r)
	add.Src[1] = sv.op
	g.emit(add)
	g.releaseVal(sv)

	back := ptx.NewInstruction(ptx.OpBra)
	back.Target = head
	backIdx := g.emit(back)
	g.depth--
	g.dropCSEDeeperThan(g.depth)

	exit := len(g.out)
	g.out[exitIdx].Target = exit
	g.out[exitIdx].Join = exit
	g.out[backIdx].Join = exit
	g.exitLoop()
}

// redefineLoopCarried is the head of a rolled loop as value numbering must
// see it: the back edge re-enters here with the loop variable and every
// variable the body assigns already overwritten, although those writes are
// emitted further down. Bumping their register versions now retires every
// CSE entry made before the loop that is held in one of them or was
// computed from one of them, so the body cannot reuse a value that is only
// right on the first trip.
func (g *gen) redefineLoopCarried(varName string, body []kir.Stmt) {
	for name, r := range g.vars {
		if name == varName || kir.AssignsVar(body, name) {
			g.vers[r]++
		}
	}
}

// rolledLoop emits head/test/body/step/back-edge for an already-bound loop
// variable.
func (g *gen) rolledLoop(varName string, t kir.Type, cond kir.Expr, body []kir.Stmt, step kir.Expr) {
	g.enterLoop()
	g.redefineLoopCarried(varName, body)
	head := len(g.out)
	pv := g.lower(cond, ptx.NoReg)
	if pv.op.IsImm || pv.op.IsSpec {
		pv = g.movToReg(pv)
	}
	exitBr := ptx.NewInstruction(ptx.OpBra)
	exitBr.GuardPred = pv.op.Reg
	exitBr.GuardNeg = true
	exitIdx := g.emit(exitBr)
	g.releaseVal(pv)

	g.depth++
	g.block(body)

	// v += step
	r := g.vars[varName]
	sv := g.lower(step, ptx.NoReg)
	add := ptx.NewInstruction(ptx.OpAdd)
	add.Typ = scalarType(t)
	add.Dst = r
	add.Src[0] = ptx.R(r)
	add.Src[1] = sv.op
	g.emit(add)
	g.releaseVal(sv)

	back := ptx.NewInstruction(ptx.OpBra)
	back.Target = head
	backIdx := g.emit(back)
	g.depth--
	g.dropCSEDeeperThan(g.depth)

	exit := len(g.out)
	g.out[exitIdx].Target = exit
	g.out[exitIdx].Join = exit
	g.out[backIdx].Join = exit
	g.exitLoop()
}
