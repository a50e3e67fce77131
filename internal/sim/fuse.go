package sim

import (
	"sync/atomic"

	"gpucmp/internal/ptx"
)

// This file builds the production interpreter's program: straight-line
// runs of predecoded ALU and memory ops are grouped into superinstruction
// segments that execute under a single dispatch (threaded.go), and hot
// segments are compiled into closure sequences (compile.go). Fusion is a
// pure analysis over []decodedOp — it never changes what executes, only
// how often the interpreter's outer loop runs.

// compileThreshold is how many full-width executions a fused segment needs
// before it is compiled into closures. The program is shared, so they are
// counted across every device, launch and request that runs the kernel at
// this width. Low enough that every loop body compiles almost immediately;
// high enough that straight-line prologue code executed once per warp never
// pays the compile.
const compileThreshold = 8

// tSeg is one fused superinstruction: the ops in [start, end) are all
// straight-line (no branch, barrier or ret, and no branch target inside),
// so a warp that reaches start with some mask executes every op in order
// under that mask. hits counts executions until the segment crosses
// compileThreshold and is compiled; compiled is published with a CAS so
// parallel compute units racing to compile agree on one winner.
type tSeg struct {
	start, end int32
	hits       atomic.Uint32
	compiled   atomic.Pointer[compiledSeg]

	// counts are the segment's dynamic-instruction-mix deltas (dynOps
	// buckets are per warp instruction, so they are mask-independent and
	// exact for any execution of the segment); nUnguarded is how many of
	// its ops have no guard, whose lane-instruction contribution is
	// nUnguarded x ActiveLanes(mask). Together they let both execution
	// paths replace per-op counting with one batched update, with only
	// guarded ops left to account individually.
	counts     []countDelta
	nUnguarded int32
}

// tProgram is one kernel lowered for one SIMD width: the predecoded ops
// (dk) and their grouping into segments. segAt maps a pc to the segment
// starting there (-1 otherwise); the interpreter consults it once per
// dispatch.
type tProgram struct {
	dk    *decodedKernel
	segs  []tSeg
	segAt []int32
}

// progKey is the ptx.Kernel.Memo key of a program. Nothing in a program
// depends on the device but its SIMD width (compileSeg lowers for it; the
// compiled memory arms read the rest of the Arch at run time), so devices
// of one width share one program and its hit counters: the tSeg atomics and
// the CAS that publishes a compiled segment make concurrent units on
// different devices as safe as units on one.
type progKey struct{ width int }

// programFor returns k's program for SIMD width w, decoded and fused on
// first use and kept as long as k is.
func programFor(k *ptx.Kernel, w int) *tProgram {
	return k.Memo(progKey{w}, func() any { return fuseKernel(decodeKernel(k)) }).(*tProgram)
}

// fusable reports whether an op may live inside a superinstruction: ALU
// and memory ops qualify (guarded ones included — the guard mask is
// re-derived per op inside the segment); control flow never does.
func fusable(d *decodedOp) bool { return d.kind == dkALU || d.kind == dkMem }

// fuseKernel partitions the program into superinstruction segments. A pc
// is a leader — a position some frame can resume at — if it is the entry,
// a branch target or reconvergence point, or the successor of a branch,
// barrier or ret. Segments are maximal runs of fusable ops that contain no
// leader after their first op, so a warp can never need to enter one in
// the middle; runs of length one stay plain interpreted ops.
func fuseKernel(dk *decodedKernel) *tProgram {
	ops := dk.ops
	n := len(ops)
	leader := make([]bool, n+1)
	leader[0] = true
	for i := range ops {
		switch ops[i].kind {
		case dkBra:
			if t := int(ops[i].target); t >= 0 && t <= n {
				leader[t] = true
			}
			if j := int(ops[i].join); j >= 0 && j <= n {
				leader[j] = true
			}
			leader[i+1] = true
		case dkBar, dkRet:
			leader[i+1] = true
		}
	}
	p := &tProgram{dk: dk, segAt: make([]int32, n)}
	for i := range p.segAt {
		p.segAt[i] = -1
	}
	// Two passes so segs is allocated exactly once: tSeg embeds atomics,
	// which must not be moved by slice growth once handed to the engine.
	nseg := 0
	scan := func(emit func(i, j int)) {
		for i := 0; i < n; {
			if !fusable(&ops[i]) {
				i++
				continue
			}
			j := i + 1
			for j < n && !leader[j] && fusable(&ops[j]) {
				j++
			}
			if j-i >= 2 {
				emit(i, j)
			}
			i = j
		}
	}
	scan(func(i, j int) { nseg++ })
	p.segs = make([]tSeg, 0, nseg)
	var sc segScratch
	scan(func(i, j int) {
		p.segAt[i] = int32(len(p.segs))
		p.segs = p.segs[:len(p.segs)+1]
		s := &p.segs[len(p.segs)-1]
		s.start, s.end = int32(i), int32(j)
		s.counts, s.nUnguarded = sc.counts(ops[i:j])
	})
	return p
}

// segScratch is the working table behind tSeg.counts, shared by every
// segment of one fuseKernel: a short kernel has dozens of segments of a few
// ops each, so the table is cleared by the indices a segment touched, not
// as a whole.
type segScratch struct {
	acc  [512]int64 // same shape as cuState.dynOps
	idxs []int32    // buckets the current segment touched, in first-use order
}

// counts precomputes a segment's dynamic-instruction-mix deltas (the same
// dynOps bucket scheme as cuState.countOp) and its unguarded-op count.
func (sc *segScratch) counts(ops []decodedOp) ([]countDelta, int32) {
	sc.idxs = sc.idxs[:0]
	nUnguarded := int32(0)
	for i := range ops {
		d := &ops[i]
		idx := int32(d.op) << 3
		if d.kind == dkMem {
			idx |= int32(d.space)
		}
		if sc.acc[idx] == 0 {
			sc.idxs = append(sc.idxs, idx)
		}
		sc.acc[idx]++
		if d.guard < 0 {
			nUnguarded++
		}
	}
	counts := make([]countDelta, len(sc.idxs))
	for i, idx := range sc.idxs {
		counts[i] = countDelta{idx: idx, n: sc.acc[idx]}
		sc.acc[idx] = 0
	}
	return counts, nUnguarded
}
