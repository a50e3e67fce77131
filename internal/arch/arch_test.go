package arch

import (
	"math"
	"reflect"
	"testing"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (±%g)", what, got, want, tol)
	}
}

// TestTheoreticalPeaks checks Eq. (2) and Eq. (3) against the values the
// paper derives in Section IV-A: 141.7 and 177.4 GB/s, 933.12 and 1344.96
// GFlops/s for GTX280 and GTX480.
func TestTheoreticalPeaks(t *testing.T) {
	g280, g480 := GTX280(), GTX480()
	almost(t, g280.TheoreticalPeakBandwidth(), 141.7, 0.05, "GTX280 TP_BW")
	almost(t, g480.TheoreticalPeakBandwidth(), 177.4, 0.05, "GTX480 TP_BW")
	almost(t, g280.TheoreticalPeakFLOPS(), 933.12, 0.01, "GTX280 TP_FLOPS")
	almost(t, g480.TheoreticalPeakFLOPS(), 1344.96, 0.01, "GTX480 TP_FLOPS")
}

func TestTableIVCoreCounts(t *testing.T) {
	if got := GTX480().TotalCores(); got != 480 {
		t.Errorf("GTX480 cores = %d, want 480", got)
	}
	if got := GTX280().TotalCores(); got != 240 {
		t.Errorf("GTX280 cores = %d, want 240", got)
	}
	if got := HD5870().TotalCores(); got != 320 {
		t.Errorf("HD5870 cores = %d, want 320", got)
	}
	if got := HD5870().ProcessingElements; got != 1600 {
		t.Errorf("HD5870 PEs = %d, want 1600", got)
	}
}

func TestAllDevicesValidate(t *testing.T) {
	devs := All()
	if len(devs) != 5 {
		t.Fatalf("All() returned %d devices, want 5", len(devs))
	}
	for _, d := range devs {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

func TestValidateRejectsBrokenDevices(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Device)
	}{
		{"no name", func(d *Device) { d.Name = "" }},
		{"zero units", func(d *Device) { d.ComputeUnits = 0 }},
		{"zero clock", func(d *Device) { d.CoreClockMHz = 0 }},
		{"zero simd", func(d *Device) { d.SIMDWidth = 0 }},
		{"zero wg", func(d *Device) { d.MaxWorkGroupSize = 0 }},
		{"neg shared", func(d *Device) { d.SharedMemPerUnit = -1 }},
		{"threads below wg", func(d *Device) { d.MaxThreadsPerUnit = d.MaxWorkGroupSize - 1 }},
		{"bw frac", func(d *Device) { d.Timing.SustainedBWFraction = 1.5 }},
		{"issue frac", func(d *Device) { d.Timing.SustainedIssueFraction = 0 }},
		{"zero link bw", func(d *Device) { d.Transfer.PCIeGBps = 0 }},
		{"neg link latency", func(d *Device) { d.Transfer.LatencyS = -1e-6 }},
	}
	for _, tc := range cases {
		d := GTX480()
		tc.mutate(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken device", tc.name)
		}
	}
}

func TestWavefrontWidths(t *testing.T) {
	// The warp/wavefront split drives the Table VI RdxS failure: NVIDIA
	// parts schedule 32 lanes, everything under AMD APP schedules 64.
	if w := GTX280().SIMDWidth; w != 32 {
		t.Errorf("GTX280 warp = %d, want 32", w)
	}
	if w := GTX480().SIMDWidth; w != 32 {
		t.Errorf("GTX480 warp = %d, want 32", w)
	}
	if w := HD5870().SIMDWidth; w != 64 {
		t.Errorf("HD5870 wavefront = %d, want 64", w)
	}
	if w := Intel920().SIMDWidth; w != 64 {
		t.Errorf("Intel920 wavefront = %d, want 64", w)
	}
}

func TestMicroarchFeatures(t *testing.T) {
	if GTX280().HasL1L2 {
		t.Error("GT200 must not have an L1/L2 hierarchy")
	}
	if !GTX480().HasL1L2 {
		t.Error("Fermi must have an L1/L2 hierarchy")
	}
	if !GTX280().HasConstantCache || !GTX280().HasTextureCache {
		t.Error("GT200 must have constant and texture caches")
	}
	if !Intel920().ImplicitlyCached {
		t.Error("the CPU device must be implicitly cached")
	}
	if CellBE().Kind != KindAccelerator {
		t.Error("Cell/BE must be an accelerator device")
	}
}

func TestByName(t *testing.T) {
	for _, d := range All() {
		got := ByName(d.Name)
		if got == nil || !reflect.DeepEqual(got, d) {
			t.Errorf("ByName(%q) failed", d.Name)
			continue
		}
		// Callers may modify what they get: every call is a fresh value.
		got.ComputeUnits++
		if again := ByName(d.Name); again == got || again.ComputeUnits == got.ComputeUnits {
			t.Errorf("ByName(%q) handed out the same description twice", d.Name)
		}
	}
	if ByName("no such device") != nil {
		t.Error("ByName of unknown device should be nil")
	}
}

func TestTestbeds(t *testing.T) {
	tb := Testbeds()
	if len(tb) != 3 {
		t.Fatalf("want 3 testbeds, got %d", len(tb))
	}
	if !tb[0].HasCUDA() || !tb[1].HasCUDA() {
		t.Error("Saturn and Dutijc must have CUDA")
	}
	if tb[2].HasCUDA() {
		t.Error("Jupiter must not have CUDA")
	}
	if tb[2].APPVersion != "2.2" {
		t.Errorf("Jupiter APP version = %q, want 2.2", tb[2].APPVersion)
	}
	for _, p := range tb {
		if p.Device == nil {
			t.Errorf("%s has no device", p.Name)
		}
	}
}

func TestTransferParameters(t *testing.T) {
	// The CPU device's buffers are host-resident, so its effective link
	// bandwidth must beat every PCIe-attached device — that asymmetry is
	// the mechanism behind the transfer-inclusive ranking flips.
	cpu := Intel920()
	for _, d := range All() {
		if d.Kind == KindCPU {
			continue
		}
		if d.Transfer.PCIeGBps >= cpu.Transfer.PCIeGBps {
			t.Errorf("%s link %g GB/s >= CPU %g GB/s", d.Name, d.Transfer.PCIeGBps, cpu.Transfer.PCIeGBps)
		}
	}
}

func TestKindAndMicroarchStrings(t *testing.T) {
	if KindGPU.String() != "GPU" || KindCPU.String() != "CPU" || KindAccelerator.String() != "ACCELERATOR" {
		t.Error("Kind.String mismatch")
	}
	if Fermi.String() != "Fermi" || GT200.String() != "GT200" {
		t.Error("Microarch.String mismatch")
	}
	if Kind(99).String() == "" || Microarch(99).String() == "" {
		t.Error("out-of-range enums must still stringify")
	}
}
