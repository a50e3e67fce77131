package bench

import (
	"gpucmp/internal/kir"
	"gpucmp/internal/sim"
	"gpucmp/internal/workload"
)

// bfsVisitKernel expands the current frontier one level (Rodinia BFS
// kernel 1): every frontier node relaxes its unvisited neighbours.
func bfsVisitKernel() *kir.Kernel {
	b := kir.NewKernel("bfsVisit")
	starts := b.GlobalBuffer("starts", kir.U32)
	edges := b.GlobalBuffer("edges", kir.U32)
	frontier := b.GlobalBuffer("frontier", kir.U32)
	updating := b.GlobalBuffer("updating", kir.U32)
	visited := b.GlobalBuffer("visited", kir.U32)
	cost := b.GlobalBuffer("cost", kir.U32)
	nodes := b.ScalarParam("nodes", kir.U32)

	tid := b.Declare("tid", b.GlobalIDX())
	b.If(kir.LAnd(kir.Lt(tid, nodes), kir.Eq(b.Load(frontier, tid), kir.U(1))), func() {
		b.Store(frontier, tid, kir.U(0))
		myCost := b.Declare("myCost", b.Load(cost, tid))
		first := b.Declare("first", b.Load(starts, tid))
		last := b.Declare("last", b.Load(starts, kir.Add(tid, kir.U(1))))
		b.For("e", first, last, kir.U(1), func(e kir.Expr) {
			n := b.Declare("n", b.Load(edges, e))
			b.If(kir.Eq(b.Load(visited, n), kir.U(0)), func() {
				// Concurrent relaxations write the same level value; the
				// exchanges keep the simulation race-free.
				b.Atomic(cost, n, kir.AtomicExch, kir.Add(myCost, kir.U(1)))
				b.Atomic(updating, n, kir.AtomicExch, kir.U(1))
			})
		})
	})
	return b.MustBuild()
}

// bfsUpdateKernel promotes updated nodes into the next frontier (Rodinia
// BFS kernel 2) and raises the not-done flag.
func bfsUpdateKernel() *kir.Kernel {
	b := kir.NewKernel("bfsUpdate")
	frontier := b.GlobalBuffer("frontier", kir.U32)
	updating := b.GlobalBuffer("updating", kir.U32)
	visited := b.GlobalBuffer("visited", kir.U32)
	done := b.GlobalBuffer("done", kir.U32)
	nodes := b.ScalarParam("nodes", kir.U32)

	tid := b.Declare("tid", b.GlobalIDX())
	b.If(kir.LAnd(kir.Lt(tid, nodes), kir.Eq(b.Load(updating, tid), kir.U(1))), func() {
		b.Store(frontier, tid, kir.U(1))
		b.Store(visited, tid, kir.U(1))
		b.Store(updating, tid, kir.U(0))
		b.Atomic(done, kir.U(0), kir.AtomicExch, kir.U(1))
	})
	return b.MustBuild()
}

// bfsRef computes reference levels with a host BFS.
func bfsRef(g *workload.Graph, src int) []uint32 {
	const unvisited = ^uint32(0)
	cost := make([]uint32, g.Nodes)
	for i := range cost {
		cost[i] = unvisited
	}
	cost[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for e := g.Starts[u]; e < g.Starts[u+1]; e++ {
			v := int(g.Edges[e])
			if cost[v] == unvisited {
				cost[v] = cost[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return cost
}

// runBFS measures breadth-first search (Table II metric: seconds). The
// level-synchronous loop launches two kernels per level, which is why the
// paper attributes BFS's CUDA-vs-OpenCL gap to kernel-launch overhead.
func runBFS(d Driver, cfg Config) *Result {
	nodes := cfg.scale(32 * 1024)
	if nodes < 64 {
		nodes = 64
	}
	g := workload.RandomGraph(nodes, 8, 67)
	const src = 0

	mod, err := d.Build(bfsVisitKernel(), bfsUpdateKernel())
	if err != nil {
		return abort(d, err)
	}
	startsBuf, err := allocWrite(d, g.Starts)
	if err != nil {
		return abort(d, err)
	}
	edgesBuf, err := allocWrite(d, g.Edges)
	if err != nil {
		return abort(d, err)
	}
	// kir.LAnd does not short-circuit, so both kernels' tail work-items
	// (tid >= nodes) load frontier[tid] and updating[tid]: those two arrays
	// span the whole grid, and their tail stays 0.
	block := sim.Dim3{X: 256, Y: 1}
	grid := sim.Dim3{X: (nodes + 255) / 256, Y: 1}
	frontierInit := make([]uint32, grid.X*block.X)
	frontierInit[src] = 1
	frontierBuf, err := allocWrite(d, frontierInit)
	if err != nil {
		return abort(d, err)
	}
	updatingBuf, err := allocZero(d, grid.X*block.X)
	if err != nil {
		return abort(d, err)
	}
	visitedInit := make([]uint32, nodes)
	visitedInit[src] = 1
	visitedBuf, err := allocWrite(d, visitedInit)
	if err != nil {
		return abort(d, err)
	}
	costBuf, err := allocZero(d, nodes)
	if err != nil {
		return abort(d, err)
	}
	doneBuf, err := allocZero(d, 1)
	if err != nil {
		return abort(d, err)
	}

	d.ResetTimer()
	for iter := 0; iter < nodes; iter++ {
		if err := d.Write(doneBuf, []uint32{0}); err != nil {
			return abort(d, err)
		}
		if err := d.Launch(mod, "bfsVisit", grid, block,
			B(startsBuf), B(edgesBuf), B(frontierBuf), B(updatingBuf), B(visitedBuf), B(costBuf), V(uint32(nodes))); err != nil {
			return abort(d, err)
		}
		if err := d.Launch(mod, "bfsUpdate", grid, block,
			B(frontierBuf), B(updatingBuf), B(visitedBuf), B(doneBuf), V(uint32(nodes))); err != nil {
			return abort(d, err)
		}
		flag, err := readWords(d, doneBuf, 1)
		if err != nil {
			return abort(d, err)
		}
		if flag[0] == 0 {
			break
		}
	}
	got, err := readWords(d, costBuf, nodes)
	if err != nil {
		return abort(d, err)
	}
	want := bfsRef(g, src)
	correct := true
	for i := range want {
		w := want[i]
		if w == ^uint32(0) {
			w = 0 // unreachable nodes keep cost 0 in the device arrays
		}
		if got[i] != w {
			correct = false
			break
		}
	}

	return result(d, 0, correct)
}
