package sim

import (
	"fmt"

	"gpucmp/internal/mem"
	"gpucmp/internal/ptx"
)

// runThreaded executes the warp over the fused program until it completes
// or reaches a barrier. Control flow, step accounting and error strings
// mirror warpCtx.run exactly. When a frame's pc sits on a fused segment the
// warp executes the whole segment under one dispatch — one frame lookup,
// one bulk steps update, one pc store — instead of once per op. Hot
// segments additionally execute through compiled closures (compile.go).
//
// Watchdog accounting stays exact: steps advances by the segment length in
// one add, but a segment that would cross the step budget, or a
// CheckpointInterval boundary with a kill flag raised, is not dispatched
// in bulk. Its ops retire one at a time through the single-op path below,
// the only copy of the per-instruction budget check, cancellation poll and
// error strings outside the oracle. ErrWatchdog therefore fires on exactly
// the same dynamic instruction as under the reference engine — the
// property the corpus hang-replay gate in internal/fuzz pins.
func (w *fwarp) runThreaded() error {
	fb := w.b
	prog := fb.prog
	ops := prog.dk.ops
	segAt := prog.segAt
	cu := fb.cu
	fullW := ^uint64(0) >> (64 - uint(fb.W))
	for len(w.frames) > 0 {
		fi := len(w.frames) - 1
		f := w.frames[fi]
		if f.pc >= len(ops) || f.pc == f.reconv || f.mask == 0 {
			w.frames = w.frames[:fi]
			continue
		}

		if si := segAt[f.pc]; si >= 0 {
			seg := &prog.segs[si]
			n := uint64(seg.end - seg.start)
			slow := fb.budget > 0 && fb.steps+n > fb.budget
			if !slow && fb.steps/CheckpointInterval != (fb.steps+n)/CheckpointInterval {
				// The bulk range crosses a checkpoint. Poll the flags now:
				// when neither is raised the in-segment poll would have been
				// a no-op and the bulk path is indistinguishable; when one
				// is, the launch dies on the boundary step.
				slow = cu.dev.cancelled.Load() || fb.abort != nil && fb.abort.Load()
			}
			if !slow {
				fb.steps += n
				var err error
				if f.mask == fullW && f.mask == w.fullMask {
					// Compiled code only handles the full-width fully-active
					// shape, so the hotness counter and the compiled pointer
					// are only consulted here: tail warps and diverged masks
					// stay interpreted and pay no compile-machinery overhead
					// (a segment only ever dispatched divergent never
					// compiles at all).
					cs := seg.compiled.Load()
					if cs == nil && seg.hits.Add(1) == compileThreshold {
						fresh := compileSeg(prog.dk, seg, fb.W)
						if seg.compiled.CompareAndSwap(nil, fresh) {
							cu.path.BlockCompiles++
						}
						cs = seg.compiled.Load()
					}
					if cs != nil {
						cu.path.CompiledOps += int64(n)
						err = cs.exec(w, cu, f.mask)
					} else {
						err = w.runSegInterp(seg, f.mask)
					}
				} else {
					err = w.runSegInterp(seg, f.mask)
				}
				if err != nil {
					return err
				}
				cu.path.SegRuns++
				cu.path.SegOps += int64(n)
				w.frames[fi].pc = int(seg.end)
				continue
			}
			// The budget runs out, or a raised flag meets its checkpoint,
			// inside this segment. Fall through: segAt is -1 past a segment's
			// first op, so its ops retire one at a time below and the verdict
			// lands on the exact step with the exact error string.
		}

		fb.steps++
		if fb.budget > 0 && fb.steps > fb.budget {
			return fmt.Errorf("sim: %s: block (%d,%d) exceeded the %d warp-instruction step budget: %w",
				fb.k.Name, fb.ctaidX, fb.ctaidY, fb.budget, ErrWatchdog)
		}
		if fb.steps%CheckpointInterval == 0 {
			if cu.dev.cancelled.Load() {
				return fmt.Errorf("sim: %s: cancelled at step %d: %w", fb.k.Name, fb.steps, ErrWatchdog)
			}
			if fb.abort != nil && fb.abort.Load() {
				return errAborted
			}
		}

		d := &ops[f.pc]
		active := f.mask
		if d.guard >= 0 {
			active = w.guardMask(d, f.mask)
		}
		lanes := mem.ActiveLanes(active)

		switch d.kind {
		case dkBra:
			cu.countOp(ptx.OpBra, ptx.SpaceNone, lanes)
			cu.branches++
			taken := active
			if d.guard < 0 {
				taken = f.mask
			}
			switch {
			case taken == f.mask:
				w.frames[fi].pc = int(d.target)
			case taken == 0:
				w.frames[fi].pc = f.pc + 1
			default:
				cu.divergent++
				w.frames[fi].pc = int(d.join)
				w.frames = append(w.frames,
					frame{pc: f.pc + 1, mask: f.mask &^ taken, reconv: int(d.join)},
					frame{pc: int(d.target), mask: taken, reconv: int(d.join)},
				)
			}

		case dkBar:
			cu.countOp(ptx.OpBar, ptx.SpaceNone, lanes)
			cu.barriers++
			w.frames[fi].pc = f.pc + 1
			w.atBarrier = true
			return nil

		case dkRet:
			cu.countOp(ptx.OpRet, ptx.SpaceNone, lanes)
			for i := range w.frames {
				w.frames[i].mask &^= active
			}
			w.frames[fi].pc = f.pc + 1

		case dkMem:
			cu.countOp(d.op, d.space, lanes)
			if active != 0 {
				if err := w.execMemFast(d, active); err != nil {
					in := &fb.k.Instrs[f.pc]
					return fmt.Errorf("sim: %s: pc %d (%s): %w", fb.k.Name, f.pc, in.Mnemonic(), err)
				}
			}
			w.frames[fi].pc = f.pc + 1

		default: // dkALU
			cu.countOp(d.op, ptx.SpaceNone, lanes)
			if active != 0 {
				w.execALUFast(d, active)
			}
			w.frames[fi].pc = f.pc + 1
		}
	}
	w.done = true
	return nil
}

// runSegInterp executes one fused segment under a constant frame mask with
// the per-op watchdog work already paid in bulk by the caller. Execution
// and guard handling are op-for-op identical to runThreaded's single-op
// path; counting is batched — the dynamic-mix deltas are per warp
// instruction and therefore mask-independent (tSeg.counts), and the
// lane-instruction total of the unguarded ops is nUnguarded x
// ActiveLanes(mask) — so only guarded ops still account lanes individually.
func (w *fwarp) runSegInterp(seg *tSeg, mask uint64) error {
	fb := w.b
	ops := fb.prog.dk.ops
	cu := fb.cu
	for _, cd := range seg.counts {
		cu.dynOps[cd.idx] += cd.n
	}
	lanes := mem.ActiveLanes(mask)
	cu.laneInstrs += int64(seg.nUnguarded) * int64(lanes)
	// The branchless full-width guard evaluation beats the sparse bit-walk
	// once the mask is reasonably dense; below that the walk's early exit
	// wins.
	denseGuards := lanes*2 >= w.b.W
	for pc := int(seg.start); pc < int(seg.end); pc++ {
		d := &ops[pc]
		active := mask
		if d.guard >= 0 {
			if denseGuards {
				active = w.guardMaskVec(d, mask)
			} else {
				active = w.guardMask(d, mask)
			}
			cu.laneInstrs += int64(mem.ActiveLanes(active))
		}
		if d.kind == dkMem {
			if active != 0 {
				if err := w.execMemFast(d, active); err != nil {
					in := &fb.k.Instrs[pc]
					return fmt.Errorf("sim: %s: pc %d (%s): %w", fb.k.Name, pc, in.Mnemonic(), err)
				}
			}
		} else if active != 0 {
			w.execALUFast(d, active)
		}
	}
	return nil
}
