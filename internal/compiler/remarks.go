package compiler

import (
	"fmt"

	"gpucmp/internal/ptx"
)

// Remarks collects the compiler's observations: one human-readable line per
// noteworthy decision ("fully unrolled loop i by 8 trips", "CSE evicted r12
// under register pressure", "spill inserted for unroll copy 3"). The
// front-end gen and every back-end pass write into the same sink, and
// Compile attaches the result to the kernel, so the story of how a listing
// came to look the way it does travels with it.
//
// The sink keeps one entry per distinct (phase, message), in first-seen
// order, and counts how many times it fired (ptx.Remark.Count). Many
// observations fire once per event — an eviction at almost every store of
// an unrolled body, a strength reduction per trip — and a kernel report
// carries each of them once, not once per event.
//
// A nil *Remarks is a valid no-op sink: callers that only want code (the
// fuzz oracle's bisection reruns, Optimize on hand-built kernels) pass nil
// and pay nothing.
type Remarks struct {
	list []ptx.Remark
	at   map[remarkKey]int // list index of each distinct remark
}

type remarkKey struct{ phase, message string }

// Addf records one remark under the given phase ("frontend" or a back-end
// pass name).
func (r *Remarks) Addf(phase, format string, args ...any) {
	if r == nil {
		return
	}
	r.add(phase, fmt.Sprintf(format, args...))
}

// add records one remark whose message is already built: a new entry the
// first time (phase, message) is seen, one more on its count after that.
func (r *Remarks) add(phase, message string) {
	if r == nil {
		return
	}
	k := remarkKey{phase, message}
	if i, ok := r.at[k]; ok {
		r.list[i].Count++
		return
	}
	if r.at == nil {
		r.at = make(map[remarkKey]int)
	}
	r.at[k] = len(r.list)
	r.list = append(r.list, ptx.Remark{Phase: phase, Message: message, Count: 1})
}

// List returns the distinct remarks in first-seen order, each with its
// count.
func (r *Remarks) List() []ptx.Remark {
	if r == nil {
		return nil
	}
	return r.list
}

// PhaseFrontEnd tags remarks emitted during KIR→PTX lowering.
const PhaseFrontEnd = "frontend"
