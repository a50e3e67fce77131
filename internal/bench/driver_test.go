package bench

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/compiler"
	"gpucmp/internal/kir"
	"gpucmp/internal/perfmodel"
	"gpucmp/internal/ptx"
	"gpucmp/internal/sim"
)

// TestToolchains: the presets carry their stack's front-end, cost model,
// device rule and error style; CUDA reaches the NVIDIA devices only,
// OpenCL every device, and the native toolchain comes first; the two wire
// names parse to the presets and nothing else parses.
func TestToolchains(t *testing.T) {
	cu, cl := CUDA(), OpenCL()
	if cu.Name != "cuda" || !reflect.DeepEqual(cu.Personality, compiler.CUDA()) ||
		!reflect.DeepEqual(cu.Costs, perfmodel.CUDAToolchain()) || !cu.NVIDIAOnly || cu.CLCodes {
		t.Errorf("CUDA() = %+v", cu)
	}
	if cl.Name != "opencl" || !reflect.DeepEqual(cl.Personality, compiler.OpenCL()) ||
		!reflect.DeepEqual(cl.Costs, perfmodel.OpenCLToolchain()) || cl.NVIDIAOnly || !cl.CLCodes {
		t.Errorf("OpenCL() = %+v", cl)
	}

	want := map[string][]string{
		arch.GTX480().Name:   {"cuda", "opencl"},
		arch.GTX280().Name:   {"cuda", "opencl"},
		arch.HD5870().Name:   {"opencl"},
		arch.Intel920().Name: {"opencl"},
		arch.CellBE().Name:   {"opencl"},
	}
	for _, a := range arch.All() {
		var got []string
		for _, tc := range Toolchains(a) {
			got = append(got, tc.Name)
			if !reflect.DeepEqual(tc, map[string]Toolchain{"cuda": cu, "opencl": cl}[tc.Name]) {
				t.Errorf("%s: Toolchains holds %+v, not the %s preset", a.Name, tc, tc.Name)
			}
		}
		if !reflect.DeepEqual(got, want[a.Name]) {
			t.Errorf("%s: Toolchains = %v, want %v", a.Name, got, want[a.Name])
		}
	}
	if len(arch.All()) != len(want) {
		t.Errorf("%d devices, the table has %d", len(arch.All()), len(want))
	}

	for name, preset := range map[string]Toolchain{"cuda": cu, "opencl": cl} {
		if tc, err := ToolchainNamed(name); err != nil || !reflect.DeepEqual(tc, preset) {
			t.Errorf("ToolchainNamed(%q) = %+v, %v; want the preset", name, tc, err)
		}
	}
	_, err := ToolchainNamed("metal")
	if want := `bench: unknown toolchain "metal" (want cuda or opencl)`; err == nil || err.Error() != want {
		t.Errorf("ToolchainNamed(metal): err = %v, want %q", err, want)
	}
}

// TestKnobbedToolchainMissesPresetCache: a value whose personality differs
// from the preset's compiles to its own compile-cache entry
// (Personality.Canonical is part of the key), so a driver opened on it
// never runs the preset's code.
func TestKnobbedToolchainMissesPresetCache(t *testing.T) {
	build := func(tc Toolchain) *ptx.Kernel {
		t.Helper()
		d, err := tc.Open(arch.GTX480())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Build(FFTKernel()); err != nil {
			t.Fatal(err)
		}
		return KernelReports(d)[0].Source()
	}
	compiler.ResetCompileCache()
	preset := build(OpenCL()) // the preset's entry is the only one
	knobbed := OpenCL()
	compiler.GapKnobs()[0].Apply(&knobbed.Personality)
	if knobbed.Personality.Canonical() == OpenCL().Personality.Canonical() {
		t.Fatal("knob left the personality unchanged")
	}

	hits, misses := compiler.CompileCacheStats()
	got := build(knobbed)
	hits2, misses2 := compiler.CompileCacheStats()
	if hits2 != hits || misses2 != misses+1 {
		t.Fatalf("knobbed build: hits %d->%d, misses %d->%d; want one miss and no hit", hits, hits2, misses, misses2)
	}
	if got == preset || got.Disassemble() == preset.Disassemble() {
		t.Error("knobbed build returned the preset's kernel")
	}
	if again := build(knobbed); again != got {
		t.Error("second knobbed build missed its own entry")
	}
}

// TestNewDriverRejectsUnknownToolchain: only the two exact names open a
// driver; anything else is an error naming them, not OpenCL.
func TestNewDriverRejectsUnknownToolchain(t *testing.T) {
	for _, name := range []string{"CUDA", "ocl", "OpenCL", ""} {
		_, err := NewDriver(name, arch.GTX480())
		if err == nil || !strings.Contains(err.Error(), "want cuda or opencl") {
			t.Errorf("NewDriver(%q): err = %v, want one naming cuda and opencl", name, err)
		}
	}
}

// TestF32Words: floats survive the trip to raw words and back bit for
// bit, and a word is the IEEE-754 encoding of its float.
func TestF32Words(t *testing.T) {
	f := []float32{0, 1.5, -2.25, float32(math.Pi), float32(math.Copysign(0, -1))}
	w := F32Words(f)
	if w[1] != 0x3fc00000 {
		t.Errorf("F32Words(1.5) = %#x, want 0x3fc00000", w[1])
	}
	got := wordsF32(w)
	for i := range f {
		if math.Float32bits(got[i]) != math.Float32bits(f[i]) {
			t.Fatalf("round trip at %d: %g, want %g", i, got[i], f[i])
		}
	}
}

// TestCLCodeStrings: each CL code prints its OpenCL name, the text a
// Table VI cell shows.
func TestCLCodeStrings(t *testing.T) {
	for code, want := range map[clCode]string{
		clOutOfResources:       "CL_OUT_OF_RESOURCES",
		clInvalidValue:         "CL_INVALID_VALUE",
		clInvalidKernelArgs:    "CL_INVALID_KERNEL_ARGS",
		clInvalidWorkGroupSize: "CL_INVALID_WORK_GROUP_SIZE",
	} {
		if code.Error() != want {
			t.Errorf("code %q prints %q, want %q", string(code), code.Error(), want)
		}
	}
}

func scaleKernel() *kir.Kernel {
	b := kir.NewKernel("scale")
	in := b.GlobalBuffer("in", kir.F32)
	out := b.GlobalBuffer("out", kir.F32)
	f := b.ScalarParam("f", kir.F32)
	gid := b.Declare("gid", b.GlobalIDX())
	b.Store(out, gid, kir.Mul(b.Load(in, gid), f))
	return b.MustBuild()
}

func constKernel() *kir.Kernel {
	b := kir.NewKernel("cmul")
	coef := b.ConstBuffer("coef", kir.F32)
	out := b.GlobalBuffer("out", kir.F32)
	gid := b.Declare("gid", b.GlobalIDX())
	b.Store(out, gid, kir.Mul(b.Load(coef, kir.Rem(gid, kir.U(4))), kir.F(2)))
	return b.MustBuild()
}

// TestDriver holds both toolchains to one runtime contract; they differ
// only in whether a failure carries a CL code.
func TestDriver(t *testing.T) {
	for _, tc := range []string{"cuda", "opencl"} {
		open := func(t *testing.T, a *arch.Device, kernels ...*kir.Kernel) (Driver, Module) {
			t.Helper()
			d, err := NewDriver(tc, a)
			if err != nil {
				t.Fatal(err)
			}
			m, err := d.Build(kernels...)
			if err != nil {
				t.Fatal(err)
			}
			return d, m
		}
		// coded checks err is want, carrying code under OpenCL only.
		coded := func(t *testing.T, what string, err, want error, code clCode) {
			t.Helper()
			if err == nil || (want != nil && !errors.Is(err, want)) {
				t.Fatalf("%s: err = %v, want %v", what, err, want)
			}
			if errors.Is(err, code) != (tc == "opencl") {
				t.Fatalf("%s: err = %v; carries %s under %s: %v", what, err, code, tc, errors.Is(err, code))
			}
		}

		t.Run(tc+"/Devices", func(t *testing.T) {
			// A driver opens exactly on the devices its toolchain
			// reaches; CUDA refuses the rest with ErrNoCUDADevice.
			for _, a := range arch.All() {
				reaches := false
				for _, v := range Toolchains(a) {
					reaches = reaches || v.Name == tc
				}
				d, err := NewDriver(tc, a)
				switch {
				case reaches && err != nil:
					t.Errorf("%s: %v", a.Name, err)
				case reaches && d.Arch() != a:
					t.Errorf("%s: driver opened on %s", a.Name, d.Arch().Name)
				case !reaches && !errors.Is(err, ErrNoCUDADevice):
					t.Errorf("%s: err = %v, want ErrNoCUDADevice", a.Name, err)
				}
			}
		})

		t.Run(tc+"/RoundTrip", func(t *testing.T) {
			d, m := open(t, arch.GTX480(), scaleKernel())
			const n = 256
			in := make([]float32, n)
			for i := range in {
				in[i] = float32(i) - 100.25
			}
			inBuf, err := d.Alloc(4 * n)
			if err != nil {
				t.Fatal(err)
			}
			outBuf, err := d.Alloc(4 * n)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Write(inBuf, F32Words(in)); err != nil {
				t.Fatal(err)
			}
			if err := d.Launch(m, "scale", sim.Dim3{X: 2, Y: 1}, sim.Dim3{X: n / 2, Y: 1},
				B(inBuf), B(outBuf), V(f32bits(1.5))); err != nil {
				t.Fatal(err)
			}
			got, err := readF32(d, outBuf, n)
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range got {
				if f != in[i]*1.5 {
					t.Fatalf("out[%d] = %g, want %g", i, f, in[i]*1.5)
				}
			}
			if d.Toolchain().Name != tc || KernelReports(d)[0].Toolchain != tc {
				t.Errorf("driver %q built %q kernels, want %q", d.Toolchain().Name, KernelReports(d)[0].Toolchain, tc)
			}
			copyTime := 2 * perfmodel.TransferTimeOn(d.Arch(), perfmodel.ToolchainFor(tc), 4*n)
			if TransferSeconds(d) != copyTime {
				t.Errorf("TransferSeconds = %g, want two %d-word copies, %g", TransferSeconds(d), n, copyTime)
			}
			if d.KernelTime() <= 0 || d.Elapsed() != d.KernelTime()+copyTime {
				t.Errorf("Elapsed %g, want KernelTime %g + transfers %g", d.Elapsed(), d.KernelTime(), copyTime)
			}
			if len(d.Traces()) != 1 || perfmodel.KernelTime(d.Arch(), d.Toolchain().Costs, d.Traces()[0]).Total != d.KernelTime() {
				t.Error("launch bookkeeping wrong")
			}
			d.ResetTimer()
			if d.Elapsed() != 0 || d.KernelTime() != 0 || TransferSeconds(d) != 0 ||
				len(d.Traces()) != 0 {
				t.Error("ResetTimer did not clear the clock")
			}
		})

		t.Run(tc+"/ConstantStaging", func(t *testing.T) {
			d, m := open(t, arch.GTX280(), constKernel())
			coefBuf, _ := d.Alloc(16)
			outBuf, _ := d.Alloc(4 * 64)
			// Each launch reads the buffer's contents at that launch, from
			// the one constant slot the buffer was given.
			for _, coefs := range [][]float32{{1, 2, 3, 4}, {-5, 6, -7, 8}} {
				if err := d.Write(coefBuf, F32Words(coefs)); err != nil {
					t.Fatal(err)
				}
				if err := d.Launch(m, "cmul", sim.Dim3{X: 1, Y: 1}, sim.Dim3{X: 64, Y: 1},
					B(coefBuf), B(outBuf)); err != nil {
					t.Fatal(err)
				}
				got, _ := readF32(d, outBuf, 64)
				for i, f := range got {
					if f != coefs[i%4]*2 {
						t.Fatalf("coefs %v: out[%d] = %g, want %g", coefs, i, f, coefs[i%4]*2)
					}
				}
			}
			if n := len(d.(*driver).constOffs); n != 1 {
				t.Errorf("%d constant slots for one buffer", n)
			}
		})

		t.Run(tc+"/BadArguments", func(t *testing.T) {
			d, m := open(t, arch.GTX480(), scaleKernel())
			buf, _ := d.Alloc(1024)
			grid, block := sim.Dim3{X: 1, Y: 1}, sim.Dim3{X: 32, Y: 1}
			for what, args := range map[string][]Arg{
				"too few":             {B(buf), B(buf)},
				"too many":            {B(buf), B(buf), V(1), V(1)},
				"scalar for a buffer": {B(buf), V(1), V(1)},
				"buffer for a scalar": {B(buf), B(buf), B(buf)},
			} {
				coded(t, what, d.Launch(m, "scale", grid, block, args...), nil, clInvalidKernelArgs)
			}
			if _, err := m.Kernel("nope"); err == nil {
				t.Error("unknown kernel found")
			}
			if len(d.Traces()) != 0 {
				t.Error("a rejected launch ran")
			}
		})

		t.Run(tc+"/TransferBounds", func(t *testing.T) {
			d, _ := open(t, arch.GTX480())
			buf, _ := d.Alloc(16)
			coded(t, "oversized write", d.Write(buf, make([]uint32, 5)), nil, clInvalidValue)
			coded(t, "oversized read", d.Read(make([]uint32, 5), buf), nil, clInvalidValue)
			if TransferSeconds(d) != 0 {
				t.Error("a rejected copy was charged")
			}
			if err := d.Write(buf, make([]uint32, 4)); err != nil {
				t.Errorf("exact-size write: %v", err)
			}
		})

		t.Run(tc+"/WorkGroupTooLarge", func(t *testing.T) {
			d, m := open(t, arch.GTX480(), scaleKernel())
			buf, _ := d.Alloc(4 * 2048)
			err := d.Launch(m, "scale", sim.Dim3{X: 1, Y: 1}, sim.Dim3{X: 1024, Y: 2}, B(buf), B(buf), V(0))
			coded(t, "2048-item work-group", err, sim.ErrInvalidWorkGroupSize, clInvalidWorkGroupSize)
			// The Table VI cells print the code, then the simulator's reason.
			if want := "CL_INVALID_WORK_GROUP_SIZE\nsim: "; tc == "opencl" && !strings.HasPrefix(err.Error(), want) {
				t.Errorf("error text %q, want prefix %q", err, want)
			}
		})
	}
}
