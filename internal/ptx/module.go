package ptx

import (
	"fmt"
	"strconv"
	"sync/atomic"
)

// Param describes one kernel parameter. Pointer parameters carry the state
// space their pointee lives in (global, constant, or texture); value
// parameters are 32-bit scalars.
type Param struct {
	Name    string
	Pointer bool
	Space   Space // for pointers: SpaceGlobal, SpaceConst or SpaceTex
	Type    ScalarType
}

// Kernel is one compiled entry point.
type Kernel struct {
	Name      string
	Toolchain string // "cuda" or "opencl": which front-end produced it
	Params    []Param
	Instrs    []Instruction

	// Resource footprint, filled in by the compiler; the runtimes check it
	// against device limits (the Table VI CL_OUT_OF_RESOURCES path) and the
	// performance model derives occupancy from it.
	// FrontEndStats is a static instruction census taken before the
	// back-end optimiser ran — the "PTX text" view that the paper's
	// Table V tabulates. Instrs holds the post-back-end code the
	// simulator executes.
	FrontEndStats *Stats

	// PassStats records, in execution order, what each back-end pass did
	// to this kernel; Remarks holds the compiler's observations from the
	// front-end and the passes, one entry per distinct (phase, message)
	// with its count. Both are immutable once Compile returns, like the
	// rest of the kernel.
	PassStats []PassStat `json:"pass_stats,omitempty"`
	Remarks   []Remark   `json:"remarks,omitempty"`

	NumRegs     int // 32-bit registers per thread (includes predicates)
	SharedBytes int // static shared memory per work-group
	LocalBytes  int // per-thread local (spill) memory
	ConstBytes  int // constant-bank bytes used for parameters

	// WarpWidthAssumption is non-zero when the kernel source bakes in a
	// hardware warp width (the RdxS implementation assumes 32). Running on
	// a device with a different SIMD width produces wrong results rather
	// than an error — the Table VI "FL" entries.
	WarpWidthAssumption int

	// derived is the kernel's *memo (see Memo), created on first use.
	derived atomic.Value
}

// Validate checks structural invariants: every opcode is a defined one, a
// branch's target and join lie in [0, len(Instrs)], and every register an
// instruction names (destination, guard predicate, register sources) is
// NoReg or within [0, NumRegs). It does not look at Params or at the offsets
// of parameter loads. A valid kernel validates without allocating: messages
// are formatted only on the way out with an error.
func (k *Kernel) Validate() error {
	n := len(k.Instrs)
	regOK := func(r Reg) bool { return r == NoReg || (r >= 0 && int(r) < k.NumRegs) }
	regErr := func(pc int, what string, r Reg) error {
		return fmt.Errorf("ptx: %s: pc %d: %s register %d out of range [0,%d)", k.Name, pc, what, r, k.NumRegs)
	}
	for pc := range k.Instrs {
		in := &k.Instrs[pc]
		if in.Op <= OpInvalid || in.Op >= numOpcodes {
			return fmt.Errorf("ptx: %s: pc %d: invalid opcode", k.Name, pc)
		}
		if in.Op == OpBra {
			if in.Target < 0 || in.Target > n {
				return fmt.Errorf("ptx: %s: pc %d: branch target %d out of range", k.Name, pc, in.Target)
			}
			if in.Join < 0 || in.Join > n {
				return fmt.Errorf("ptx: %s: pc %d: join %d out of range", k.Name, pc, in.Join)
			}
		}
		if !regOK(in.Dst) {
			return regErr(pc, "dst", in.Dst)
		}
		if !regOK(in.GuardPred) {
			return regErr(pc, "guard", in.GuardPred)
		}
		for i := range in.Src {
			if s := &in.Src[i]; !s.IsImm && !s.IsSpec && !regOK(s.Reg) {
				return regErr(pc, fmt.Sprintf("src%d", i), s.Reg)
			}
		}
	}
	return nil
}

// Disassemble renders the kernel as PTX-like text, one instruction per line
// with pc labels, as `paper -v tableV` prints for side-by-side inspection.
func (k *Kernel) Disassemble() string {
	b := make([]byte, 0, 128+40*len(k.Instrs))
	b = append(append(b, ".entry "...), k.Name...)
	b = append(append(b, "  // toolchain="...), k.Toolchain...)
	b = strconv.AppendInt(append(b, " regs="...), int64(k.NumRegs), 10)
	b = strconv.AppendInt(append(b, " shared="...), int64(k.SharedBytes), 10)
	b = strconv.AppendInt(append(b, "B local="...), int64(k.LocalBytes), 10)
	b = append(b, "B\n"...)
	for _, p := range k.Params {
		b = append(b, "  .param "...)
		if p.Pointer {
			b = append(append(b, "ptr."...), p.Space.String()...)
		} else {
			b = append(b, p.Type.String()...)
		}
		b = append(append(append(b, ' '), p.Name...), '\n')
	}
	for pc := range k.Instrs {
		// The label is left-justified in five columns ("L7   "), then a space.
		start := len(b)
		b = strconv.AppendInt(append(b, 'L'), int64(pc), 10)
		for len(b)-start < 5 {
			b = append(b, ' ')
		}
		b = append(k.Instrs[pc].appendTo(append(b, ' ')), '\n')
	}
	return string(b)
}

// StaticStats counts the kernel's instructions per opcode/class without
// executing it — this is exactly what the paper's Table V tabulates for the
// FFT "forward" kernel.
func (k *Kernel) StaticStats() *Stats {
	s := NewStats()
	for pc := range k.Instrs {
		s.Count(&k.Instrs[pc], 1)
	}
	return s
}

// Module is a set of kernels produced by one front-end from one source
// program, mirroring a CUDA module / OpenCL program object.
type Module struct {
	Name    string
	Kernels map[string]*Kernel
}

// NewModule returns an empty module.
func NewModule(name string) *Module {
	return &Module{Name: name, Kernels: make(map[string]*Kernel)}
}

// Add inserts a kernel, replacing any previous kernel of the same name.
func (m *Module) Add(k *Kernel) { m.Kernels[k.Name] = k }

// Kernel returns the named kernel or an error.
func (m *Module) Kernel(name string) (*Kernel, error) {
	k, ok := m.Kernels[name]
	if !ok {
		return nil, fmt.Errorf("ptx: module %s has no kernel %q", m.Name, name)
	}
	return k, nil
}
