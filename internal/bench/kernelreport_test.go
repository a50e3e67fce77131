package bench

import (
	"encoding/json"
	"reflect"
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/kir"
	"gpucmp/internal/ptx"
)

// TestDriversRecordBuiltKernels: under both toolchains the driver records
// what Build compiled, and benchmark results carry the reports with pass
// stats and remarks attached.
func TestDriversRecordBuiltKernels(t *testing.T) {
	for _, toolchain := range []string{"cuda", "opencl"} {
		t.Run(toolchain, func(t *testing.T) {
			d, err := NewDriver(toolchain, arch.GTX280())
			if err != nil {
				t.Fatal(err)
			}
			spec, err := SpecByName("FFT")
			if err != nil {
				t.Fatal(err)
			}
			res, err := spec.Run(d, Config{Scale: 16})
			if err != nil {
				t.Fatal(err)
			}
			if res.Err != nil {
				t.Fatalf("FFT aborted: %v", res.Err)
			}
			if len(res.Kernels) == 0 {
				t.Fatal("result carries no kernel reports")
			}
			for _, kr := range res.Kernels {
				if kr.Toolchain != toolchain {
					t.Errorf("kernel %s tagged %q, want %q", kr.Name, kr.Toolchain, toolchain)
				}
				if kr.Instrs == 0 || kr.NumRegs == 0 {
					t.Errorf("kernel %s: empty footprint: %+v", kr.Name, kr)
				}
				if len(kr.PassStats) == 0 {
					t.Errorf("kernel %s: no pass stats", kr.Name)
				}
				if len(kr.Remarks) == 0 {
					t.Errorf("kernel %s: no remarks", kr.Name)
				}
			}
		})
	}
}

// TestKernelReportsBuildOrderDeterministic: the report list follows the
// Build call's kernel order, not map iteration order.
func TestKernelReportsBuildOrderDeterministic(t *testing.T) {
	names := func() []string {
		d, err := NewDriver("cuda", arch.GTX280())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Build(append([]*kir.Kernel{FFTKernel()}, canonicalKernels(t, "MxM")...)...); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, kr := range KernelReports(d) {
			out = append(out, kr.Name)
		}
		return out
	}
	first := names()
	if len(first) != 2 {
		t.Fatalf("built 2 kernels, reported %v", first)
	}
	for i := 0; i < 5; i++ {
		if got := names(); !reflect.DeepEqual(got, first) {
			t.Fatalf("report order unstable: %v vs %v", got, first)
		}
	}
}

// TestKernelReportsUnknownDriver: a custom Driver implementation outside
// this package yields no reports rather than a panic.
func TestKernelReportsUnknownDriver(t *testing.T) {
	if got := KernelReports(Driver(nil)); got != nil {
		t.Errorf("nil driver reports: %v", got)
	}
}

// TestResultJSONCarriesKernels: the wire format round-trips kernel reports
// and still omits them when absent.
func TestResultJSONCarriesKernels(t *testing.T) {
	in := Result{
		Benchmark: "FFT", Toolchain: "cuda", Device: "GeForce GTX480",
		Metric: "GFlops/sec", Value: 412.5, Correct: true,
		Kernels: []KernelReport{{
			Name: "fft_fwd", Toolchain: "cuda", Instrs: 120, NumRegs: 14,
			SharedBytes: 2048,
			PassStats: []ptx.PassStat{{
				Pass: "dce", InstrsBefore: 130, InstrsAfter: 120,
				RegsBefore: 18, RegsAfter: 14, Removed: 10,
			}},
			Remarks: []ptx.Remark{
				{Phase: "frontend", Message: "fully unrolled loop j by 8 trip(s)"},
				{Phase: "frontend", Message: "CSE evicted r9 under register pressure (window 10)", Count: 3},
			},
		}},
	}
	data, err := json.Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out Result
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Kernels, in.Kernels) {
		t.Errorf("kernel reports changed over the wire:\n in: %+v\nout: %+v", in.Kernels, out.Kernels)
	}

	bare := Result{Benchmark: "MD", Toolchain: "cuda", Device: "d", Metric: "sec", Correct: true}
	data, err = json.Marshal(&bare)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "" && jsonHasKey(t, data, "kernels") {
		t.Errorf("empty kernel list serialised: %s", data)
	}
}

func jsonHasKey(t *testing.T, data []byte, key string) bool {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	_, ok := m[key]
	return ok
}
