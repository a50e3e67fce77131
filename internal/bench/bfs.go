package bench

import (
	"slices"

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

// bfsBlock is the work-group width of both BFS kernels.
const bfsBlock = 256

// bfsData is BFS's host side at one node count.
type bfsData struct {
	starts, edges []uint32 // the CSR graph
	// frontier spans the whole grid: kir.LAnd does not short-circuit, so
	// both kernels' tail work-items (tid >= nodes) load frontier[tid] and
	// updating[tid], and that tail stays 0.
	frontier, visited []uint32
	want              []uint32 // levels; unreachable nodes keep cost 0, as on the device
}

// bfsHost builds the graph, the initial flags and the reference levels.
func bfsHost(nodes int) *bfsData {
	const src = 0
	g := workload.RandomGraph(nodes, 8, 67)
	h := &bfsData{
		starts:   g.Starts,
		edges:    g.Edges,
		frontier: make([]uint32, (nodes+bfsBlock-1)/bfsBlock*bfsBlock),
		visited:  make([]uint32, nodes),
		want:     bfsRef(g, src),
	}
	h.frontier[src], h.visited[src] = 1, 1
	for i, w := range h.want {
		if w == ^uint32(0) {
			h.want[i] = 0
		}
	}
	return h
}

// runBFS measures breadth-first search (Table II metric: seconds). The
// level-synchronous loop launches two kernels per level, which is why the
// paper attributes BFS's CUDA-vs-OpenCL gap to kernel-launch overhead.
func runBFS(d Driver, cfg Config) *Result {
	nodes := max(cfg.scale(32*1024), 64)
	h := hostData("BFS", nodes, bfsHost)

	mod, err := d.Build(bfsVisitKernel(), bfsUpdateKernel())
	if err != nil {
		return abort(d, err)
	}
	startsBuf, err := allocWrite(d, h.starts)
	if err != nil {
		return abort(d, err)
	}
	edgesBuf, err := allocWrite(d, h.edges)
	if err != nil {
		return abort(d, err)
	}
	block := sim.Dim3{X: bfsBlock, Y: 1}
	grid := sim.Dim3{X: len(h.frontier) / bfsBlock, Y: 1}
	frontierBuf, err := allocWrite(d, h.frontier)
	if err != nil {
		return abort(d, err)
	}
	updatingBuf, err := allocZero(d, len(h.frontier))
	if err != nil {
		return abort(d, err)
	}
	visitedBuf, err := allocWrite(d, h.visited)
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
	return result(d, 0, slices.Equal(got, h.want))
}
