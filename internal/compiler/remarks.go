package compiler

import (
	"fmt"

	"gpucmp/internal/ptx"
)

// Remarks collects the compiler's observation stream: one human-readable
// line per noteworthy decision ("fully unrolled loop i by 8 trips", "CSE
// evicted r12 under register pressure", "spill inserted for unroll copy
// 3"). The front-end gen and every back-end pass write into the same sink,
// and Compile attaches the result to the kernel, so the story of how a
// listing came to look the way it does travels with it.
//
// A nil *Remarks is a valid no-op sink: callers that only want code (the
// fuzz oracle's bisection reruns, Optimize on hand-built kernels) pass nil
// and pay nothing.
type Remarks struct {
	list []ptx.Remark
}

// Addf appends one remark under the given phase ("frontend" or a back-end
// pass name).
func (r *Remarks) Addf(phase, format string, args ...any) {
	if r == nil {
		return
	}
	r.add(phase, fmt.Sprintf(format, args...))
}

// add appends one remark whose message is already built.
func (r *Remarks) add(phase, message string) {
	if r == nil {
		return
	}
	r.list = append(r.list, ptx.Remark{Phase: phase, Message: message})
}

// List returns the collected remarks in emission order.
func (r *Remarks) List() []ptx.Remark {
	if r == nil {
		return nil
	}
	return r.list
}

// PhaseFrontEnd tags remarks emitted during KIR→PTX lowering.
const PhaseFrontEnd = "frontend"
