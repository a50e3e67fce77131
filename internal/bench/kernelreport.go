package bench

import (
	"gpucmp/internal/ptx"
)

// KernelReport is the per-kernel compiler story attached to a Result: the
// resource footprint plus the pass-pipeline statistics and the remark
// stream. It is the observable half of the paper's Table V — what each
// front-end emitted and what the shared back-end did about it — reported
// alongside the performance number it explains.
type KernelReport struct {
	Name      string `json:"name"`
	Toolchain string `json:"toolchain"`

	Instrs      int `json:"instrs"` // post-back-end instruction count
	NumRegs     int `json:"num_regs"`
	SharedBytes int `json:"shared_bytes,omitempty"`
	LocalBytes  int `json:"local_bytes,omitempty"`
	ConstBytes  int `json:"const_bytes,omitempty"`

	PassStats []ptx.PassStat `json:"pass_stats,omitempty"`
	Remarks   []ptx.Remark   `json:"remarks,omitempty"`

	src *ptx.Kernel // what ReportKernel summarised; see Source
}

// ReportKernel summarises one compiled kernel.
func ReportKernel(pk *ptx.Kernel) KernelReport {
	return KernelReport{
		Name:        pk.Name,
		Toolchain:   pk.Toolchain,
		Instrs:      len(pk.Instrs),
		NumRegs:     pk.NumRegs,
		SharedBytes: pk.SharedBytes,
		LocalBytes:  pk.LocalBytes,
		ConstBytes:  pk.ConstBytes,
		PassStats:   pk.PassStats,
		Remarks:     pk.Remarks,
		src:         pk,
	}
}

// Source returns the kernel a report from ReportKernel summarises, nil for
// one decoded from JSON or built by hand. A report is a pure function of
// its (immutable) source, so what is derived from it — its encoding — can
// be kept on the kernel (ptx.Kernel.Memo). Treat a sourced report as
// immutable too.
func (r *KernelReport) Source() *ptx.Kernel { return r.src }

// KernelReports returns the compiler reports for every kernel a driver
// built, in build order. It reaches under the Driver interface, so custom
// test drivers simply yield no reports.
func KernelReports(d Driver) []KernelReport {
	dd, ok := d.(*driver)
	if !ok {
		return nil
	}
	out := make([]KernelReport, len(dd.built))
	for i, pk := range dd.built {
		out[i] = ReportKernel(pk)
	}
	return out
}
