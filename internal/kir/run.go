package kir

// A host reference executor: runs a kernel directly from the IR on the
// calling goroutine, stepping each work-item of a block to its next
// barrier in thread order, no compiler or simulator involved. It defines
// the semantics of the IR — the compiled+simulated pipeline is
// differentially tested against it — and doubles as a plain CPU fallback
// for running kernels.

import (
	"errors"
	"fmt"
)

// ErrWatchdog is returned when a work-item exceeds RunConfig.StepBudget:
// the reference executor's equivalent of the display watchdog killing a
// runaway kernel instead of hanging the host.
var ErrWatchdog = errors.New("kir: watchdog: step budget exceeded")

// RunConfig describes one launch for the reference executor.
type RunConfig struct {
	GridX, GridY   int
	BlockX, BlockY int
	// Buffers maps buffer-parameter names to their backing storage
	// (global, constant and texture buffers all live host-side here).
	Buffers map[string][]uint32
	// Scalars maps value-parameter names to their 32-bit values.
	Scalars map[string]uint32
	// WarpSize is the value the WarpSize builtin reports (default 32).
	WarpSize int
	// StepBudget bounds the statements one work-item may execute before the
	// run is killed with an error wrapping ErrWatchdog (0 = unbounded). Set
	// it when running untrusted kernels — a non-terminating loop otherwise
	// hangs the executor.
	StepBudget uint64
}

// Run executes the kernel over the whole grid, one block after another on
// the calling goroutine. It keeps no state outside its arguments, so
// concurrent calls on disjoint buffers are safe.
func Run(k *Kernel, cfg RunConfig) error {
	if cfg.GridX <= 0 || cfg.GridY <= 0 || cfg.BlockX <= 0 || cfg.BlockY <= 0 {
		return fmt.Errorf("kir: Run: non-positive launch dimensions")
	}
	if cfg.WarpSize == 0 {
		cfg.WarpSize = 32
	}
	for _, p := range k.Params {
		if p.Buffer {
			if _, ok := cfg.Buffers[p.Name]; !ok {
				return fmt.Errorf("kir: Run: missing buffer %q", p.Name)
			}
		} else if _, ok := cfg.Scalars[p.Name]; !ok {
			return fmt.Errorf("kir: Run: missing scalar %q", p.Name)
		}
	}
	for by := 0; by < cfg.GridY; by++ {
		for bx := 0; bx < cfg.GridX; bx++ {
			if err := runBlock(k, cfg, bx, by); err != nil {
				return err
			}
		}
	}
	return nil
}

// runBlock executes one block as a fixed sequential interleaving: in every
// barrier generation thread 0, 1, 2 … is stepped in turn to its next
// barrier or to the end of the kernel, and once all have arrived the next
// generation starts again from thread 0. Racing writes therefore get one
// defined, reproducible result instead of a scheduler-dependent one, so
// differential comparisons and the shrinker's predicate re-checks never
// flap. The first work-item to die ends the run with its error. Barrier
// divergence — some threads waiting at a barrier the others returned past —
// ends it too, reported in the name of the lowest waiting thread.
func runBlock(k *Kernel, cfg RunConfig, bx, by int) (err error) {
	shared := map[string][]uint32{}
	for _, a := range k.SharedArrays {
		shared[a.Name] = make([]uint32, a.Count)
	}
	threads := make([]runEval, cfg.BlockX*cfg.BlockY)
	for t := range threads {
		local := map[string][]uint32{}
		for _, a := range k.LocalArrays {
			local[a.Name] = make([]uint32, a.Count)
		}
		threads[t] = runEval{
			cfg: cfg, shared: shared, local: local,
			tidX: uint32(t % cfg.BlockX), tidY: uint32(t / cfg.BlockX),
			ctaX: uint32(bx), ctaY: uint32(by),
			vars:   map[string]uint32{},
			stack:  []frame{{stmts: k.Body}},
			budget: cfg.StepBudget,
		}
	}
	who := func(t int) string {
		return fmt.Sprintf("kir: Run: block (%d,%d) thread %d (tid %d,%d)", bx, by, t, threads[t].tidX, threads[t].tidY)
	}
	t := 0 // the thread being stepped: a panic out of resume is its death
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if e, ok := r.(error); ok && errors.Is(e, ErrWatchdog) {
			err = fmt.Errorf("%s killed after %d steps: %w", who(t), threads[t].steps, ErrWatchdog)
			return
		}
		err = fmt.Errorf("%s: %v", who(t), r)
	}()
	for {
		waiting, lowest, lastWaits := 0, 0, false
		for t = range threads {
			if lastWaits = threads[t].resume(); lastWaits {
				if waiting == 0 {
					lowest = t
				}
				waiting++
			}
		}
		switch exited := len(threads) - waiting; {
		case waiting == 0:
			return nil
		case exited == 0:
			// Everyone arrived: next generation.
		case lastWaits:
			return fmt.Errorf("%s: barrier divergence: %d thread(s) wait at a barrier that %d thread(s) already exited the kernel without reaching",
				who(lowest), waiting, exited)
		default:
			return fmt.Errorf("%s: barrier divergence: thread %d returned from the kernel while %d thread(s) wait at a barrier",
				who(lowest), len(threads)-1, waiting)
		}
	}
}

// frame is one level of a work-item's continuation: the statement list it
// is inside and where to go on in it. Barriers are statements and
// expressions never block, so a stack of frames beside vars is everything
// needed to suspend a thread at a barrier and resume it later.
type frame struct {
	stmts []Stmt
	next  int
	loop  *ForStmt // non-nil when stmts is loop.Body: its end steps and re-tests
}

type runEval struct {
	cfg    RunConfig
	shared map[string][]uint32
	local  map[string][]uint32

	tidX, tidY uint32
	ctaX, ctaY uint32
	vars       map[string]uint32
	stack      []frame

	steps  uint64
	budget uint64 // 0 = unbounded
}

// step charges one executed statement (or loop iteration) against the
// budget, panicking with ErrWatchdog once it is exhausted; the recover in
// runBlock converts the panic into a typed error.
func (e *runEval) step() {
	e.steps++
	if e.budget > 0 && e.steps > e.budget {
		panic(ErrWatchdog)
	}
}

func (e *runEval) buffer(name string) []uint32 {
	if buf, ok := e.shared[name]; ok {
		return buf
	}
	if buf, ok := e.local[name]; ok {
		return buf
	}
	return e.cfg.Buffers[name]
}

// enter pushes a nested statement list; loop is its ForStmt when the list
// is a loop body.
func (e *runEval) enter(stmts []Stmt, loop *ForStmt) {
	e.stack = append(e.stack, frame{stmts: stmts, loop: loop})
}

// resume runs the work-item from where it last stopped until it arrives at
// a barrier (true) or returns from the kernel (false). A dying work-item
// panics.
func (e *runEval) resume() (atBarrier bool) {
	for len(e.stack) > 0 {
		f := &e.stack[len(e.stack)-1]
		if f.next == len(f.stmts) {
			if l := f.loop; l != nil {
				e.vars[l.Var] += e.expr(l.Step)
				if e.less(l.T, e.vars[l.Var], e.expr(l.Limit)) {
					e.step() // charge empty-body iterations too (step 0 never terminates)
					f.next = 0
					continue
				}
				delete(e.vars, l.Var)
			}
			e.stack = e.stack[:len(e.stack)-1]
			continue
		}
		s := f.stmts[f.next]
		f.next++ // f is dead once a case below calls enter
		e.step()
		switch s := s.(type) {
		case *DeclStmt:
			e.vars[s.Name] = e.expr(s.Init)
		case *AssignStmt:
			e.vars[s.Name] = e.expr(s.Value)
		case *StoreStmt:
			buf := e.buffer(s.Buf)
			idx := e.expr(s.Index)
			val := e.expr(s.Value)
			if int(idx) >= len(buf) {
				panic(fmt.Sprintf("store to %s[%d] out of range (%d)", s.Buf, idx, len(buf)))
			}
			buf[idx] = val
		case *AtomicStmt:
			buf := e.buffer(s.Buf)
			idx := e.expr(s.Index)
			val := e.expr(s.Value)
			if int(idx) >= len(buf) {
				panic(fmt.Sprintf("atomic on %s[%d] out of range (%d)", s.Buf, idx, len(buf)))
			}
			old := buf[idx]
			switch s.Op {
			case AtomicAdd:
				buf[idx] = old + val
			case AtomicOr:
				buf[idx] = old | val
			case AtomicMax:
				if val > old {
					buf[idx] = val
				}
			case AtomicExch:
				buf[idx] = val
			}
			if s.Result != "" {
				e.vars[s.Result] = old
			}
		case *IfStmt:
			if e.expr(s.Cond) != 0 {
				e.enter(s.Then, nil)
			} else {
				e.enter(s.Else, nil)
			}
		case *ForStmt:
			e.vars[s.Var] = e.expr(s.Init)
			if e.less(s.T, e.vars[s.Var], e.expr(s.Limit)) {
				e.step()
				e.enter(s.Body, s)
			} else {
				delete(e.vars, s.Var)
			}
		case *BarrierStmt:
			return true
		default:
			panic(fmt.Sprintf("unknown statement %T", s))
		}
	}
	return false
}

func (e *runEval) less(t Type, a, b uint32) bool {
	if t == I32 {
		return int32(a) < int32(b)
	}
	return a < b
}

// expr delegates to the shared EvalExpr interpreter: runEval is the
// EvalEnv that binds variables, parameters, work-item identity and memory
// for one thread of one launch.
func (e *runEval) expr(x Expr) uint32 { return EvalExpr(x, e) }

// Var resolves a declared variable (EvalEnv).
func (e *runEval) Var(name string) (uint32, bool) {
	v, ok := e.vars[name]
	return v, ok
}

// Param resolves a scalar kernel parameter (EvalEnv).
func (e *runEval) Param(name string) uint32 { return e.cfg.Scalars[name] }

// BuiltinVal resolves a work-item identification register (EvalEnv).
func (e *runEval) BuiltinVal(k BuiltinKind) uint32 {
	switch k {
	case TidX:
		return e.tidX
	case TidY:
		return e.tidY
	case NtidX:
		return uint32(e.cfg.BlockX)
	case NtidY:
		return uint32(e.cfg.BlockY)
	case CtaidX:
		return e.ctaX
	case CtaidY:
		return e.ctaY
	case NctaidX:
		return uint32(e.cfg.GridX)
	case NctaidY:
		return uint32(e.cfg.GridY)
	case WarpSize:
		return uint32(e.cfg.WarpSize)
	}
	return 0
}

// LoadWord resolves Buf[idx] (EvalEnv).
func (e *runEval) LoadWord(bufName string, idx uint32) uint32 {
	buf := e.buffer(bufName)
	if int(idx) >= len(buf) {
		panic(fmt.Sprintf("load from %s[%d] out of range (%d)", bufName, idx, len(buf)))
	}
	return buf[idx]
}
