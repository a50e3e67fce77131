package pattern

// Lowering turns one (program, schedule, shape) triple into concrete KIR
// kernels plus the buffer set and launch sequence that runs them. At the
// canonical schedule the generated kernels are the MxM, Reduce and Scan
// benchmark kernels of internal/bench, and mirror its hand-written St2D and
// Sobel kernels — same guard shapes, same floating-point combination
// order — which is what makes bench.PatternParity bitwise.
//
// Kernel names embed the schedule mangle, so two different schedules of the
// same program can never alias each other in the process-wide compile cache
// (which is keyed on formatted kernel text), while identical kernels
// requested twice share one cache entry.

import (
	"fmt"
	"math"
	"strings"

	"gpucmp/internal/kir"
)

// Role classifies a lowered buffer.
type Role int

const (
	// RoleInput is caller-supplied input data.
	RoleInput Role = iota
	// RoleOutput is the program's result buffer.
	RoleOutput
	// RoleTemp is an intermediate materialised by an unfused stage.
	RoleTemp
	// RoleCoeff is a coefficient table with fixed contents (Init).
	RoleCoeff
)

// BufSpec describes one device buffer a lowered program needs.
type BufSpec struct {
	Name  string
	Words int
	Space kir.MemSpace // Global or Const
	Role  Role
	Init  []uint32 // RoleCoeff contents; nil otherwise
}

// LaunchArg is one positional kernel argument: a buffer by name or a
// 32-bit scalar value.
type LaunchArg struct {
	Buf   string
	Val   uint32
	IsVal bool
}

// BufArg references a lowered buffer.
func BufArg(name string) LaunchArg { return LaunchArg{Buf: name} }

// ValArg passes a scalar.
func ValArg(v uint32) LaunchArg { return LaunchArg{Val: v, IsVal: true} }

// Launch is one kernel invocation with concrete geometry and arguments
// (positional, matching the kernel's parameter order).
type Launch struct {
	Kernel         string
	GridX, GridY   int
	BlockX, BlockY int
	Args           []LaunchArg
}

// Lowered is an executable program instance: run the launches in order and
// read Out.
type Lowered struct {
	Prog     Program
	Sched    Schedule
	Shape    Shape
	Kernels  []*kir.Kernel
	Bufs     []BufSpec
	Launches []Launch
	Out      string
	// Key is the canonical identity of this lowering: program name plus
	// schedule mangle (the value carried in bench.Config.Pattern).
	Key string
}

// Buf returns the named buffer spec, or nil.
func (l *Lowered) Buf(name string) *BufSpec {
	for i := range l.Bufs {
		if l.Bufs[i].Name == name {
			return &l.Bufs[i]
		}
	}
	return nil
}

// mangleIdent is the schedule mangle with identifier-safe separators, for
// kernel names.
func (s Schedule) mangleIdent() string {
	return strings.ReplaceAll(s.Mangle(), ".", "_")
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

func log2(n int) int {
	r := 0
	for 1<<uint(r+1) <= n {
		r++
	}
	return r
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// identityExpr renders an identity element's bit pattern as a literal of
// the element type.
func identityExpr(t kir.Type, bits uint32) kir.Expr {
	switch t {
	case kir.F32:
		return kir.F(math.Float32frombits(bits))
	case kir.I32:
		return kir.I(int32(bits))
	default:
		return kir.U(bits)
	}
}

// Lower instantiates the program under the schedule for a concrete shape.
func Lower(p Program, s Schedule, shape Shape) (*Lowered, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if s.BlockX <= 0 {
		return nil, fmt.Errorf("pattern: lower %s: schedule needs BlockX > 0", p.ProgName())
	}
	if s.Coarsen < 1 {
		return nil, fmt.Errorf("pattern: lower %s: schedule needs Coarsen >= 1", p.ProgName())
	}
	l := &Lowered{
		Prog: p, Sched: s, Shape: shape,
		Key: p.ProgName() + ":" + s.Mangle(),
	}
	var err error
	switch p := p.(type) {
	case *MapProg:
		err = lowerMap(l, p, s, shape)
	case *ReduceProg:
		err = lowerReduce(l, p, s, shape)
	case *ScanProg:
		err = lowerScan(l, p, s, shape)
	case *Stencil2DProg:
		err = lowerStencil(l, p, s, shape)
	case *MatMulProg:
		err = lowerMatMul(l, p, s, shape)
	default:
		err = fmt.Errorf("pattern: lower: unknown program type %T", p)
	}
	if err != nil {
		return nil, err
	}
	for _, k := range l.Kernels {
		if err := kir.Check(k); err != nil {
			return nil, fmt.Errorf("pattern: lower %s: generated kernel fails the checker: %w", l.Key, err)
		}
	}
	return l, nil
}

// chainInputs resolves the distinct input buffers of an elementwise chain
// in first-use order, with each one's element type.
func chainInputs(root *Node) ([]string, map[string]kir.Type, error) {
	types := map[string]kir.Type{}
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n.Input != "" {
			if t, ok := types[n.Input]; ok && t != n.T {
				return fmt.Errorf("pattern: input %q used as both %s and %s", n.Input, t, n.T)
			}
			types[n.Input] = n.T
			return nil
		}
		for _, a := range n.Args {
			if err := walk(a); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return nil, nil, err
	}
	var inputs []string
	nodeInputs(root, map[string]bool{}, &inputs)
	return inputs, types, nil
}

// inlineNode builds the fused expression for a node at index idx, loading
// leaves through load.
func inlineNode(n *Node, idx kir.Expr, load func(buf string, idx kir.Expr) kir.Expr) kir.Expr {
	if n.Input != "" {
		return load(n.Input, kir.CloneExpr(idx))
	}
	args := make([]kir.Expr, len(n.Args))
	for i, a := range n.Args {
		args[i] = inlineNode(a, idx, load)
	}
	return n.Fn.Expr(args...)
}

// mapStage is one materialised Apply node of an unfused elementwise chain.
type mapStage struct {
	node *Node
	out  string   // buffer this stage writes
	args []string // buffer read by each fn argument, in order
}

// collectStages flattens the Apply nodes in post-order (producers first).
// Intermediates are named <prefix>t0, <prefix>t1, ...; the root stage
// writes finalOut instead.
func collectStages(root *Node, prefix, finalOut string) []mapStage {
	var stages []mapStage
	var walk func(n *Node) string
	walk = func(n *Node) string {
		if n.Input != "" {
			return n.Input
		}
		args := make([]string, len(n.Args))
		for i, a := range n.Args {
			args[i] = walk(a)
		}
		name := fmt.Sprintf("%st%d", prefix, len(stages))
		stages = append(stages, mapStage{node: n, out: name, args: args})
		return name
	}
	walk(root)
	stages[len(stages)-1].out = finalOut
	return stages
}

// elementLoop emits the guarded per-element body of a 1-D elementwise
// kernel under the schedule's coarsening: emit(i) must store the element
// at index i.
func elementLoop(b *kir.Builder, s Schedule, n kir.Expr, emit func(i kir.Expr)) {
	gid := b.Declare("gid", b.GlobalIDX())
	if s.Coarsen == 1 {
		b.If(kir.Lt(gid, n), func() { emit(gid) })
		return
	}
	base := b.Declare("base", kir.Mul(gid, kir.U(uint32(s.Coarsen))))
	b.ForUnroll("j", kir.U(0), kir.U(uint32(s.Coarsen)), kir.U(1), s.Unroll, func(j kir.Expr) {
		i := b.Declare("i", kir.Add(base, j))
		b.If(kir.Lt(i, n), func() { emit(i) })
	})
}

// mapGrid is the launch width of a coarsened 1-D elementwise kernel.
func mapGrid(n int, s Schedule) int { return ceilDiv(n, s.BlockX*s.Coarsen) }

// emitStages lowers every Apply node of root to its own elementwise
// kernel + launch, materialising intermediates in n-word global temps.
// The root stage writes finalOut, whose BufSpec gets finalRole; the caller
// owns the input BufSpecs.
func emitStages(l *Lowered, s Schedule, n int, progName string, root *Node, types map[string]kir.Type, finalOut string, finalRole Role) error {
	stages := collectStages(root, progName+"_", finalOut)
	elemOf := func(name string) kir.Type {
		if t, ok := types[name]; ok {
			return t
		}
		for _, st := range stages {
			if st.out == name {
				return st.node.Fn.Ret()
			}
		}
		return kir.U32
	}
	for si, st := range stages {
		role := RoleTemp
		if st.out == finalOut {
			role = finalRole
		}
		l.Bufs = append(l.Bufs, BufSpec{Name: st.out, Words: n, Space: kir.Global, Role: role})

		kname := fmt.Sprintf("%s_%s_s%d", progName, s.mangleIdent(), si)
		b := kir.NewKernel(kname)
		bufs := map[string]kir.Buf{}
		var args []LaunchArg
		for _, a := range st.args {
			if _, ok := bufs[a]; ok {
				continue
			}
			bufs[a] = b.GlobalBuffer(a, elemOf(a))
			args = append(args, BufArg(a))
		}
		outBuf := b.GlobalBuffer(st.out, st.node.Fn.Ret())
		args = append(args, BufArg(st.out))
		nParam := b.ScalarParam("n", kir.U32)
		args = append(args, ValArg(uint32(n)))
		elementLoop(b, s, nParam, func(i kir.Expr) {
			fnArgs := make([]kir.Expr, len(st.args))
			for ai, a := range st.args {
				fnArgs[ai] = b.Load(bufs[a], kir.CloneExpr(i))
			}
			b.Store(outBuf, kir.CloneExpr(i), st.node.Fn.Expr(fnArgs...))
		})
		k, err := b.Build()
		if err != nil {
			return err
		}
		l.Kernels = append(l.Kernels, k)
		l.Launches = append(l.Launches, Launch{
			Kernel: kname,
			GridX:  mapGrid(n, s), GridY: 1,
			BlockX: s.BlockX, BlockY: 1,
			Args: args,
		})
	}
	return nil
}

func lowerMap(l *Lowered, p *MapProg, s Schedule, shape Shape) error {
	n := shape.N
	if n <= 0 {
		return fmt.Errorf("pattern: lower %s: need N > 0", p.Name)
	}
	inputs, types, err := chainInputs(p.Root)
	if err != nil {
		return err
	}
	for _, in := range inputs {
		l.Bufs = append(l.Bufs, BufSpec{Name: in, Words: n, Space: kir.Global, Role: RoleInput})
	}
	l.Out = "out"

	if !s.Fuse {
		return emitStages(l, s, n, p.Name, p.Root, types, "out", RoleOutput)
	}

	// Fused: one kernel computes the whole chain per element.
	kname := fmt.Sprintf("%s_%s", p.Name, s.mangleIdent())
	b := kir.NewKernel(kname)
	bufs := map[string]kir.Buf{}
	var args []LaunchArg
	for _, in := range inputs {
		bufs[in] = b.GlobalBuffer(in, types[in])
		args = append(args, BufArg(in))
	}
	l.Bufs = append(l.Bufs, BufSpec{Name: "out", Words: n, Space: kir.Global, Role: RoleOutput})
	outBuf := b.GlobalBuffer("out", p.Root.Elem())
	args = append(args, BufArg("out"))
	nParam := b.ScalarParam("n", kir.U32)
	args = append(args, ValArg(uint32(n)))
	elementLoop(b, s, nParam, func(i kir.Expr) {
		b.Store(outBuf, kir.CloneExpr(i), inlineNode(p.Root, i, func(buf string, idx kir.Expr) kir.Expr {
			return b.Load(bufs[buf], idx)
		}))
	})
	k, err := b.Build()
	if err != nil {
		return err
	}
	l.Kernels = append(l.Kernels, k)
	l.Launches = append(l.Launches, Launch{
		Kernel: kname,
		GridX:  mapGrid(n, s), GridY: 1,
		BlockX: s.BlockX, BlockY: 1,
		Args: args,
	})
	return nil
}

func lowerReduce(l *Lowered, p *ReduceProg, s Schedule, shape Shape) error {
	n := shape.N
	if n <= 0 {
		return fmt.Errorf("pattern: lower %s: need N > 0", p.Name)
	}
	if !isPow2(s.BlockX) || s.BlockX < 2 || s.BlockX > 1024 {
		return fmt.Errorf("pattern: lower %s: reduce needs a power-of-two block in [2,1024], got %d", p.Name, s.BlockX)
	}
	if s.Coarsen != 1 {
		return fmt.Errorf("pattern: lower %s: reduce does not coarsen", p.Name)
	}
	B := s.BlockX
	groups := ceilDiv(n, B)
	elem := p.Root.Elem()
	fused := s.Fuse || p.Root.Input != ""

	inputs, types, err := chainInputs(p.Root)
	if err != nil {
		return err
	}
	for _, in := range inputs {
		l.Bufs = append(l.Bufs, BufSpec{Name: in, Words: n, Space: kir.Global, Role: RoleInput})
	}
	feed := "" // buffer the reduce kernel loads when unfused
	if !fused {
		feed = p.Name + "_root"
		if err := emitStages(l, s, n, p.Name, p.Root, types, feed, RoleTemp); err != nil {
			return err
		}
	}

	kname := fmt.Sprintf("%s_%s", p.Name, s.mangleIdent())
	b := kir.NewKernel(kname)
	bufs := map[string]kir.Buf{}
	var args []LaunchArg
	if fused {
		for _, in := range inputs {
			bufs[in] = b.GlobalBuffer(in, types[in])
			args = append(args, BufArg(in))
		}
	} else {
		bufs[feed] = b.GlobalBuffer(feed, elem)
		args = append(args, BufArg(feed))
	}
	l.Bufs = append(l.Bufs, BufSpec{Name: "out", Words: groups, Space: kir.Global, Role: RoleOutput})
	outBuf := b.GlobalBuffer("out", elem)
	args = append(args, BufArg("out"))
	nParam := b.ScalarParam("n", kir.U32)
	args = append(args, ValArg(uint32(n)))
	tile := b.SharedArray("tile", elem, B)
	tid := kir.Bi(kir.TidX)

	gid := b.Declare("gid", b.GlobalIDX())
	v := b.Declare("v", identityExpr(elem, p.Identity))
	b.If(kir.Lt(gid, nParam), func() {
		if fused {
			b.Assign(v, inlineNode(p.Root, gid, func(buf string, idx kir.Expr) kir.Expr {
				return b.Load(bufs[buf], idx)
			}))
		} else {
			b.Assign(v, b.Load(bufs[feed], gid))
		}
	})
	b.Store(tile, tid, v)
	b.Barrier()
	if s.TreeReduce {
		rounds := log2(B)
		b.ForUnroll("p", kir.U(0), kir.U(uint32(rounds)), kir.U(1), s.Unroll, func(pv kir.Expr) {
			stride := kir.Shr(kir.U(uint32(B/2)), pv)
			b.If(kir.Lt(tid, stride), func() {
				b.Store(tile, tid, p.Combine.Expr(
					b.Load(tile, tid),
					b.Load(tile, kir.Add(tid, stride))))
			})
			b.Barrier()
		})
		b.If(kir.Eq(tid, kir.U(0)), func() {
			b.Store(outBuf, kir.Bi(kir.CtaidX), b.Load(tile, kir.U(0)))
		})
	} else {
		// Sequential fold by thread 0 — same left-to-right element order as
		// a host fold over the tile, but a different association than the
		// tree, so float programs only compare under tolerance here.
		b.If(kir.Eq(tid, kir.U(0)), func() {
			acc := b.Declare("acc", b.Load(tile, kir.U(0)))
			b.ForUnroll("t", kir.U(1), kir.U(uint32(B)), kir.U(1), s.Unroll, func(t kir.Expr) {
				b.Assign(acc, p.Combine.Expr(acc, b.Load(tile, t)))
			})
			b.Store(outBuf, kir.Bi(kir.CtaidX), acc)
		})
	}
	k, err := b.Build()
	if err != nil {
		return err
	}
	l.Kernels = append(l.Kernels, k)
	l.Launches = append(l.Launches, Launch{
		Kernel: kname,
		GridX:  groups, GridY: 1,
		BlockX: B, BlockY: 1,
		Args: args,
	})
	l.Out = "out"
	return nil
}

func lowerScan(l *Lowered, p *ScanProg, s Schedule, shape Shape) error {
	n := shape.N
	if n <= 0 {
		return fmt.Errorf("pattern: lower %s: need N > 0", p.Name)
	}
	if !isPow2(s.BlockX) || s.BlockX < 2 || s.BlockX > 1024 {
		return fmt.Errorf("pattern: lower %s: scan needs a power-of-two block in [2,1024], got %d", p.Name, s.BlockX)
	}
	if n%s.BlockX != 0 {
		return fmt.Errorf("pattern: lower %s: scan needs N %% block == 0 (n=%d, block=%d)", p.Name, n, s.BlockX)
	}
	B := s.BlockX
	groups := n / B
	rounds := log2(B)
	elem := p.Elem
	m := s.mangleIdent()

	l.Bufs = append(l.Bufs,
		BufSpec{Name: p.Input, Words: n, Space: kir.Global, Role: RoleInput},
		BufSpec{Name: "out", Words: n, Space: kir.Global, Role: RoleOutput},
		BufSpec{Name: "sums", Words: groups, Space: kir.Global, Role: RoleTemp},
	)

	// Per-block Blelloch scan (upsweep, clear, downsweep), exclusive.
	blockName := fmt.Sprintf("%s_%s_scan", p.Name, m)
	{
		b := kir.NewKernel(blockName)
		in := b.GlobalBuffer(p.Input, elem)
		out := b.GlobalBuffer("out", elem)
		sums := b.GlobalBuffer("sums", elem)
		tmp := b.SharedArray("tmp", elem, B)
		tid := kir.Bi(kir.TidX)

		gid := b.Declare("gid", b.GlobalIDX())
		b.Store(tmp, tid, b.Load(in, gid))
		b.Barrier()
		b.ForUnroll("p", kir.U(0), kir.U(uint32(rounds)), kir.U(1), s.Unroll, func(pv kir.Expr) {
			dd := kir.Shr(kir.U(uint32(B/2)), pv)
			off := kir.Shl(kir.U(1), pv)
			b.If(kir.Lt(tid, dd), func() {
				ai := b.Declare("ai", kir.Sub(kir.Mul(off, kir.Add(kir.Mul(tid, kir.U(2)), kir.U(1))), kir.U(1)))
				bi := b.Declare("bi", kir.Sub(kir.Mul(off, kir.Add(kir.Mul(tid, kir.U(2)), kir.U(2))), kir.U(1)))
				b.Store(tmp, bi, p.Combine.Expr(b.Load(tmp, bi), b.Load(tmp, ai)))
			})
			b.Barrier()
		})
		b.If(kir.Eq(tid, kir.U(0)), func() {
			b.Store(sums, kir.Bi(kir.CtaidX), b.Load(tmp, kir.U(uint32(B-1))))
			b.Store(tmp, kir.U(uint32(B-1)), identityExpr(elem, p.Identity))
		})
		b.Barrier()
		b.ForUnroll("q", kir.U(0), kir.U(uint32(rounds)), kir.U(1), s.Unroll, func(q kir.Expr) {
			dd := kir.Shl(kir.U(1), q)
			off := kir.Shr(kir.U(uint32(B/2)), q)
			b.If(kir.Lt(tid, dd), func() {
				ai := b.Declare("ai", kir.Sub(kir.Mul(off, kir.Add(kir.Mul(tid, kir.U(2)), kir.U(1))), kir.U(1)))
				bi := b.Declare("bi", kir.Sub(kir.Mul(off, kir.Add(kir.Mul(tid, kir.U(2)), kir.U(2))), kir.U(1)))
				t := b.Declare("t", b.Load(tmp, ai))
				b.Store(tmp, ai, b.Load(tmp, bi))
				b.Store(tmp, bi, p.Combine.Expr(b.Load(tmp, bi), t))
			})
			b.Barrier()
		})
		b.Store(out, gid, b.Load(tmp, tid))
		k, err := b.Build()
		if err != nil {
			return err
		}
		l.Kernels = append(l.Kernels, k)
	}

	// Second level: one thread exclusive-scans the per-block sums in place.
	sumsName := fmt.Sprintf("%s_%s_sums", p.Name, m)
	{
		b := kir.NewKernel(sumsName)
		sums := b.GlobalBuffer("sums", elem)
		cnt := b.ScalarParam("n", kir.U32)
		gid := b.Declare("gid", b.GlobalIDX())
		b.If(kir.Eq(gid, kir.U(0)), func() {
			acc := b.Declare("acc", identityExpr(elem, p.Identity))
			b.For("i", kir.U(0), cnt, kir.U(1), func(i kir.Expr) {
				v := b.Declare("v", b.Load(sums, i))
				b.Store(sums, i, acc)
				b.Assign(acc, p.Combine.Expr(acc, v))
			})
		})
		k, err := b.Build()
		if err != nil {
			return err
		}
		l.Kernels = append(l.Kernels, k)
	}

	// Third level: fold each block's scanned base into its tile.
	addName := fmt.Sprintf("%s_%s_add", p.Name, m)
	{
		b := kir.NewKernel(addName)
		out := b.GlobalBuffer("out", elem)
		sums := b.GlobalBuffer("sums", elem)
		gid := b.Declare("gid", b.GlobalIDX())
		b.Store(out, gid, p.Combine.Expr(b.Load(out, gid), b.Load(sums, kir.Bi(kir.CtaidX))))
		k, err := b.Build()
		if err != nil {
			return err
		}
		l.Kernels = append(l.Kernels, k)
	}

	l.Launches = append(l.Launches,
		Launch{Kernel: blockName, GridX: groups, GridY: 1, BlockX: B, BlockY: 1,
			Args: []LaunchArg{BufArg(p.Input), BufArg("out"), BufArg("sums")}},
		Launch{Kernel: sumsName, GridX: 1, GridY: 1, BlockX: 1, BlockY: 1,
			Args: []LaunchArg{BufArg("sums"), ValArg(uint32(groups))}},
		Launch{Kernel: addName, GridX: groups, GridY: 1, BlockX: B, BlockY: 1,
			Args: []LaunchArg{BufArg("out"), BufArg("sums")}},
	)
	l.Out = "out"
	return nil
}

// stencilRadius is the guard band: taps outside it would read out of
// bounds.
func stencilRadius(taps []Tap) int {
	r := 0
	for _, t := range taps {
		for _, d := range []int{t.DY, t.DX} {
			if d > r {
				r = d
			}
			if -d > r {
				r = -d
			}
		}
	}
	return r
}

func lowerStencil(l *Lowered, p *Stencil2DProg, s Schedule, shape Shape) error {
	w, h := shape.W, shape.H
	if w <= 0 || h <= 0 {
		return fmt.Errorf("pattern: lower %s: need W, H > 0", p.Name)
	}
	if s.ConstCoeff && len(p.Coeffs) == 0 {
		return fmt.Errorf("pattern: lower %s: ConstCoeff without coefficients", p.Name)
	}
	B := s.BlockX
	r := stencilRadius(p.Taps)

	kname := fmt.Sprintf("%s_%s", p.Name, s.mangleIdent())
	b := kir.NewKernel(kname)
	in := b.GlobalBuffer(p.Input, kir.F32)
	var filt kir.Buf
	var args []LaunchArg
	args = append(args, BufArg(p.Input))
	if len(p.Coeffs) > 0 {
		if s.ConstCoeff {
			filt = b.ConstBuffer("filt", kir.F32)
		} else {
			filt = b.GlobalBuffer("filt", kir.F32)
		}
		args = append(args, BufArg("filt"))
	}
	out := b.GlobalBuffer("out", kir.F32)
	args = append(args, BufArg("out"))
	wp := b.ScalarParam("w", kir.U32)
	hp := b.ScalarParam("h", kir.U32)
	args = append(args, ValArg(uint32(w)), ValArg(uint32(h)))

	x := b.Declare("x", b.GlobalIDX())
	y := b.Declare("y", b.GlobalIDY())
	inside := kir.LAnd(
		kir.LAnd(kir.Ge(x, kir.U(uint32(r))), kir.Lt(x, kir.Sub(wp, kir.U(uint32(r))))),
		kir.LAnd(kir.Ge(y, kir.U(uint32(r))), kir.Lt(y, kir.Sub(hp, kir.U(uint32(r))))))
	b.If(inside, func() {
		fnArgs := make([]kir.Expr, 0, len(p.Fn.Params))
		for _, t := range p.Taps {
			row := kir.Add(y, kir.CastTo(kir.U32, kir.I(int32(t.DY))))
			col := kir.Add(x, kir.CastTo(kir.U32, kir.I(int32(t.DX))))
			fnArgs = append(fnArgs, b.Load(in, kir.Add(kir.Mul(row, wp), col)))
		}
		if len(p.Coeffs) > 0 {
			for j := range p.Taps {
				fnArgs = append(fnArgs, b.Load(filt, kir.U(uint32(j))))
			}
		}
		b.Store(out, kir.Add(kir.Mul(y, wp), x), p.Fn.Expr(fnArgs...))
	})
	k, err := b.Build()
	if err != nil {
		return err
	}

	l.Bufs = append(l.Bufs, BufSpec{Name: p.Input, Words: w * h, Space: kir.Global, Role: RoleInput})
	if len(p.Coeffs) > 0 {
		space := kir.Global
		if s.ConstCoeff {
			space = kir.Const
		}
		init := make([]uint32, len(p.Coeffs))
		for i, c := range p.Coeffs {
			init[i] = math.Float32bits(c)
		}
		l.Bufs = append(l.Bufs, BufSpec{Name: "filt", Words: len(p.Coeffs), Space: space, Role: RoleCoeff, Init: init})
	}
	l.Bufs = append(l.Bufs, BufSpec{Name: "out", Words: w * h, Space: kir.Global, Role: RoleOutput})
	l.Kernels = append(l.Kernels, k)
	l.Launches = append(l.Launches, Launch{
		Kernel: kname,
		GridX:  ceilDiv(w, B), GridY: ceilDiv(h, B),
		BlockX: B, BlockY: B,
		Args: args,
	})
	l.Out = "out"
	return nil
}

func lowerMatMul(l *Lowered, p *MatMulProg, s Schedule, shape Shape) error {
	n := shape.N
	if n <= 0 {
		return fmt.Errorf("pattern: lower %s: need N > 0", p.Name)
	}
	B := s.BlockX
	if B <= 0 || n%B != 0 {
		return fmt.Errorf("pattern: lower %s: matmul needs N %% block == 0 (n=%d, block=%d)", p.Name, n, B)
	}

	kname := fmt.Sprintf("%s_%s", p.Name, s.mangleIdent())
	b := kir.NewKernel(kname)
	a := b.GlobalBuffer("A", kir.F32)
	bm := b.GlobalBuffer("B", kir.F32)
	c := b.GlobalBuffer("C", kir.F32)
	np := b.ScalarParam("n", kir.U32)

	if s.Tile {
		as := b.SharedArray("As", kir.F32, B*B)
		bs := b.SharedArray("Bs", kir.F32, B*B)
		tx := kir.Bi(kir.TidX)
		ty := kir.Bi(kir.TidY)
		row := b.Declare("row", b.GlobalIDY())
		col := b.Declare("col", b.GlobalIDX())
		acc := b.Declare("acc", kir.F(0))
		tiles := b.Declare("tiles", kir.Div(np, kir.U(uint32(B))))
		b.For("t", kir.U(0), tiles, kir.U(1), func(t kir.Expr) {
			b.Store(as, kir.Add(kir.Mul(ty, kir.U(uint32(B))), tx),
				b.Load(a, kir.Add(kir.Mul(row, np), kir.Add(kir.Mul(t, kir.U(uint32(B))), tx))))
			b.Store(bs, kir.Add(kir.Mul(ty, kir.U(uint32(B))), tx),
				b.Load(bm, kir.Add(kir.Mul(kir.Add(kir.Mul(t, kir.U(uint32(B))), ty), np), col)))
			b.Barrier()
			b.ForUnroll("k", kir.U(0), kir.U(uint32(B)), kir.U(1), s.Unroll, func(k kir.Expr) {
				b.Assign(acc, kir.Add(acc, kir.Mul(
					b.Load(as, kir.Add(kir.Mul(ty, kir.U(uint32(B))), k)),
					b.Load(bs, kir.Add(kir.Mul(k, kir.U(uint32(B))), tx)))))
			})
			b.Barrier()
		})
		b.Store(c, kir.Add(kir.Mul(row, np), col), acc)
	} else {
		// Same k-ascending accumulation order as the tiled form, so both
		// schedules produce bit-identical results.
		row := b.Declare("row", b.GlobalIDY())
		col := b.Declare("col", b.GlobalIDX())
		acc := b.Declare("acc", kir.F(0))
		b.For("k", kir.U(0), np, kir.U(1), func(k kir.Expr) {
			b.Assign(acc, kir.Add(acc, kir.Mul(
				b.Load(a, kir.Add(kir.Mul(row, np), k)),
				b.Load(bm, kir.Add(kir.Mul(k, np), col)))))
		})
		b.Store(c, kir.Add(kir.Mul(row, np), col), acc)
	}
	k, err := b.Build()
	if err != nil {
		return err
	}

	l.Bufs = append(l.Bufs,
		BufSpec{Name: "A", Words: n * n, Space: kir.Global, Role: RoleInput},
		BufSpec{Name: "B", Words: n * n, Space: kir.Global, Role: RoleInput},
		BufSpec{Name: "C", Words: n * n, Space: kir.Global, Role: RoleOutput},
	)
	l.Kernels = append(l.Kernels, k)
	l.Launches = append(l.Launches, Launch{
		Kernel: kname,
		GridX:  n / B, GridY: n / B,
		BlockX: B, BlockY: B,
		Args: []LaunchArg{BufArg("A"), BufArg("B"), BufArg("C"), ValArg(uint32(n))},
	})
	l.Out = "C"
	return nil
}
