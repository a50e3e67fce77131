package kir

// Run is the semantics of record behind every differential gate, and this
// file is the only place its observable contract is written down: the one
// interleaving a racy block gets, the whole text of every error, what
// survives a suspension at a barrier, and that callers may run side by
// side. Every expected value was recorded from the executor of PR 10 (one
// goroutine per work-item behind a turnstile) before it was replaced.

import (
	"errors"
	"reflect"
	"sync"
	"testing"
)

// TestRunInterleavingPinned: a block runs thread 0, 1, 2 … each to its next
// barrier, generation after generation, so even unsynchronised accesses
// have exactly one result.
func TestRunInterleavingPinned(t *testing.T) {
	const n = 8
	b := NewKernel("racy")
	out := b.GlobalBuffer("out", U32)
	chain := b.GlobalBuffer("chain", U32)
	sh := b.SharedArray("sh", U32, n)
	tid := b.Declare("tid", Add(Mul(Bi(TidY), Bi(NtidX)), Bi(TidX)))
	next := Rem(Add(tid, U(1)), U(n))
	// Generation 0: everyone stores to out[0]; everyone reads a neighbour's
	// shared word that only thread n-1's neighbour has written yet.
	b.Store(out, U(0), tid)
	b.Store(sh, tid, Add(tid, U(100)))
	b.Store(out, Add(U(1), tid), b.Load(sh, next))
	b.Barrier()
	// Generation 1: the winner of out[0] is visible to all; an exchange
	// chain hands each thread its predecessor's ticket; shared is raced on
	// again, this time read before the neighbour overwrites it.
	b.Store(out, Add(U(1+n), tid), b.Load(out, U(0)))
	old := b.Declare("old", U(0))
	b.AtomicResult(chain, U(0), AtomicExch, Add(tid, U(1)), old)
	b.Store(out, Add(U(1+2*n), tid), old)
	b.Store(out, Add(U(1+3*n), tid), b.Load(sh, next))
	b.Store(sh, tid, Mul(old, U(3)))
	b.Barrier()
	// Generation 2: settled values.
	b.Store(out, Add(U(1+4*n), tid), b.Load(sh, next))
	k := b.MustBuild()

	got := make([]uint32, 1+5*n)
	chainBuf := []uint32{77}
	err := Run(k, RunConfig{GridX: 1, GridY: 1, BlockX: 4, BlockY: 2,
		Buffers: map[string][]uint32{"out": got, "chain": chainBuf}})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{
		7,
		0, 0, 0, 0, 0, 0, 0, 100, // only thread 7 runs after its neighbour (thread 0)
		7, 7, 7, 7, 7, 7, 7, 7,
		77, 1, 2, 3, 4, 5, 6, 7, // thread t takes thread t-1's ticket
		101, 102, 103, 104, 105, 106, 107, 231, // thread 7 sees thread 0's second write (77*3)
		3, 6, 9, 12, 15, 18, 21, 231,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("out = %v\nwant  %v", got, want)
	}
	if chainBuf[0] != n {
		t.Errorf("chain[0] = %d, want %d", chainBuf[0], n)
	}
}

// TestRunErrorStringsPinned: the full text of every way a run can fail,
// including which work-item is named.
func TestRunErrorStringsPinned(t *testing.T) {
	lin := Add(Mul(Bi(TidY), Bi(NtidX)), Bi(TidX))
	gid := Add(Mul(Bi(CtaidX), U(4)), lin)
	inBlock1 := func(c Expr) Expr { return LAnd(Eq(Bi(CtaidX), U(1)), c) }

	cases := []struct {
		name   string
		build  func(b *Builder, out Buf)
		budget uint64
		want   string
		out    []uint32 // out[0:len] after the failed run
	}{
		{name: "divergence, last thread waits",
			build: func(b *Builder, out Buf) {
				b.Store(out, gid, U(1))
				b.If(inBlock1(Ge(lin, U(2))), func() { b.Barrier() })
			},
			want: "kir: Run: block (1,0) thread 2 (tid 0,1): barrier divergence: 2 thread(s) wait at a barrier that 2 thread(s) already exited the kernel without reaching",
			out:  []uint32{1, 1, 1, 1, 1, 1, 1, 1}},
		{name: "divergence, last thread returns",
			build: func(b *Builder, out Buf) {
				b.If(inBlock1(LOr(Eq(lin, U(1)), Eq(lin, U(2)))), func() { b.Barrier() })
				b.Store(out, gid, U(1))
			},
			want: "kir: Run: block (1,0) thread 1 (tid 1,0): barrier divergence: thread 3 returned from the kernel while 2 thread(s) wait at a barrier",
			out:  []uint32{1, 1, 1, 1, 1, 0, 0, 1}},
		{name: "load out of range",
			build: func(b *Builder, out Buf) {
				b.Store(out, lin, b.Load(out, Add(Mul(lin, U(4)), U(1))))
			},
			want: "kir: Run: block (0,0) thread 2 (tid 0,1): load from out[9] out of range (8)",
			out:  []uint32{0, 0, 0, 0}},
		{name: "store out of range",
			build: func(b *Builder, out Buf) {
				b.Store(out, Mul(lin, U(5)), U(9))
			},
			want: "kir: Run: block (0,0) thread 2 (tid 0,1): store to out[10] out of range (8)",
			out:  []uint32{9, 0, 0, 0, 0, 9}},
		{name: "atomic out of range",
			build: func(b *Builder, out Buf) {
				b.Barrier()
				b.Atomic(out, Mul(lin, U(7)), AtomicAdd, U(3))
			},
			want: "kir: Run: block (0,0) thread 2 (tid 0,1): atomic on out[14] out of range (8)",
			out:  []uint32{3, 0, 0, 0, 0, 0, 0, 3}},
		{name: "watchdog names the lowest hanging thread",
			build: func(b *Builder, out Buf) {
				b.Store(out, lin, U(1))
				b.For("i", U(0), Select(Ge(lin, U(1)), U(1), U(0)), U(0), func(Expr) {})
			},
			budget: 100,
			want:   "kir: Run: block (0,0) thread 1 (tid 1,0) killed after 101 steps: kir: watchdog: step budget exceeded",
			out:    []uint32{1, 1, 0, 0}},
		{name: "watchdog after a barrier",
			build: func(b *Builder, out Buf) {
				b.Barrier()
				b.Store(out, lin, U(1))
				b.For("i", U(0), Select(Ge(lin, U(2)), U(1), U(0)), U(0), func(i Expr) {
					b.Store(out, U(4), i)
				})
			},
			budget: 7,
			want:   "kir: Run: block (0,0) thread 2 (tid 0,1) killed after 8 steps: kir: watchdog: step budget exceeded",
			out:    []uint32{1, 1, 1, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewKernel("fail")
			tc.build(b, b.GlobalBuffer("out", U32))
			k := b.MustBuild()
			out := make([]uint32, 8)
			err := Run(k, RunConfig{GridX: 2, GridY: 1, BlockX: 2, BlockY: 2,
				Buffers: map[string][]uint32{"out": out}, StepBudget: tc.budget})
			if err == nil || err.Error() != tc.want {
				t.Errorf("err = %v\nwant  %s", err, tc.want)
			}
			if wd := tc.budget > 0; errors.Is(err, ErrWatchdog) != wd {
				t.Errorf("errors.Is(err, ErrWatchdog) = %v, want %v", !wd, wd)
			}
			// The run stops at the failure: nothing after it has executed.
			if got := out[:len(tc.out)]; !reflect.DeepEqual(got, tc.out) {
				t.Errorf("out = %v, want %v", got, tc.out)
			}
		})
	}
}

// loopTreeSumKernel sums a 64-thread block's inputs with a tree reduction
// whose barrier sits inside a rolled For inside an If, so a work-item is
// suspended two levels deep with a live loop variable. It accumulates into
// shared memory it never clears: a second block only gets the right sum if
// its shared arrays start zeroed.
func loopTreeSumKernel() *Kernel {
	b := NewKernel("loopreduce")
	in := b.GlobalBuffer("in", U32)
	out := b.GlobalBuffer("out", U32)
	n := b.ScalarParam("n", U32)
	tile := b.SharedArray("tile", U32, 64)
	lin := b.Declare("lin", Add(Mul(Bi(TidY), Bi(NtidX)), Bi(TidX)))
	b.Store(tile, lin, Add(b.Load(tile, lin), b.Load(in, Add(Mul(Bi(CtaidX), U(64)), lin))))
	b.IfElse(Gt(n, U(0)), func() {
		b.Barrier()
		b.For("p", U(0), n, U(1), func(p Expr) {
			stride := b.Declare("stride", Shr(U(32), p))
			b.If(Lt(lin, stride), func() {
				b.Store(tile, lin, Add(b.Load(tile, lin), b.Load(tile, Add(lin, stride))))
			})
			b.Barrier()
		})
		b.If(Eq(lin, U(0)), func() { b.Store(out, Bi(CtaidX), b.Load(tile, U(0))) })
	}, func() {
		b.Store(out, Bi(CtaidX), U(0xdead))
	})
	return b.MustBuild()
}

func runLoopReduce(in []uint32) ([]uint32, error) {
	out := make([]uint32, len(in)/64)
	err := Run(loopTreeSumKernel(), RunConfig{GridX: len(out), GridY: 1, BlockX: 8, BlockY: 8,
		Buffers: map[string][]uint32{"in": in, "out": out},
		Scalars: map[string]uint32{"n": 6}})
	return out, err
}

// TestRunResumesInsideLoops: a work-item suspended at a barrier inside
// nested control flow goes on exactly where it stopped.
func TestRunResumesInsideLoops(t *testing.T) {
	in := make([]uint32, 2*64)
	want := make([]uint32, 2)
	for i := range in {
		in[i] = uint32(i*i + 1)
		want[i/64] += in[i]
	}
	got, err := runLoopReduce(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("block sums = %v, want %v", got, want)
	}
}

// TestRunConcurrentCallers: Run keeps no state between or across calls, so
// callers on disjoint buffers (fuzz's worker pools) each get the answer a
// lone caller gets. Meaningful under -race.
func TestRunConcurrentCallers(t *testing.T) {
	input := func(g int) []uint32 {
		in := make([]uint32, 2*64)
		for i := range in {
			in[i] = uint32(g*1000 + i)
		}
		return in
	}
	const callers = 8
	var (
		wg   sync.WaitGroup
		got  [callers][]uint32
		errs [callers]error
	)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = runLoopReduce(input(g))
		}(g)
	}
	wg.Wait()
	for g := 0; g < callers; g++ {
		want, err := runLoopReduce(input(g))
		if err != nil || errs[g] != nil {
			t.Fatalf("caller %d: err = %v alone, %v concurrently", g, err, errs[g])
		}
		if !reflect.DeepEqual(got[g], want) {
			t.Errorf("caller %d: got %v concurrently, %v alone", g, got[g], want)
		}
	}
}
