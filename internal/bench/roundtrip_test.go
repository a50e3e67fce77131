package bench

import (
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/compiler"
	"gpucmp/internal/kir"
	"gpucmp/internal/pattern"
	"gpucmp/internal/ptx"
	"gpucmp/internal/sim"
	"gpucmp/internal/workload"
)

// TestDisassemblyRoundTripsAllKernels serialises every benchmark kernel
// under both front-ends through the textual PTX form and requires an exact
// round trip — the disassembly doubles as a compiled-kernel format.
func TestDisassemblyRoundTripsAllKernels(t *testing.T) {
	kernels := []*kir.Kernel{
		SobelKernel(true), SobelKernel(false),
		TranPKernel(false), TranPKernel(true),
		FFTKernel(),
		MDKernel(true), MDKernel(false),
		SPMVScalarKernel(true), SPMVScalarKernel(false), SPMVVectorKernel(false),
		St2DKernel(),
		DXTCKernel(),
		FDTDKernel(true, true), FDTDKernel(false, true),
		radixCountKernel(), scanSumsKernel(), radixScatterKernel(),
		stnwLocalKernel(), stnwGlobalKernel(),
		bfsVisitKernel(), bfsUpdateKernel(),
		maxFlopsKernel(true, 4), maxFlopsKernel(false, 4),
		deviceMemoryKernel(4),
	}
	for _, name := range []string{"Reduce", "MxM", "Scan"} {
		kernels = append(kernels, canonicalKernels(t, name)...)
	}
	for _, src := range kernels {
		for _, p := range []compiler.Personality{compiler.CUDA(), compiler.OpenCL()} {
			pk, err := compiler.Compile(src, p)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", src.Name, p.Name, err)
			}
			text := pk.Disassemble()
			parsed, err := ptx.Parse(text)
			if err != nil {
				t.Fatalf("%s/%s: parse: %v", src.Name, p.Name, err)
			}
			if len(parsed.Instrs) != len(pk.Instrs) {
				t.Fatalf("%s/%s: instr count %d vs %d", src.Name, p.Name, len(parsed.Instrs), len(pk.Instrs))
			}
			for i := range pk.Instrs {
				if parsed.Instrs[i] != pk.Instrs[i] {
					t.Fatalf("%s/%s: instr %d differs:\n%v\n%v",
						src.Name, p.Name, i, parsed.Instrs[i], pk.Instrs[i])
				}
			}
			if again := parsed.Disassemble(); again != text {
				t.Fatalf("%s/%s: disassembly not a fixpoint", src.Name, p.Name)
			}
		}
	}
}

// canonicalKernels lowers a pattern benchmark's program at its canonical
// schedule and default shape: the kernels its Run* builds when
// Config.Pattern is empty.
func canonicalKernels(t *testing.T, name string) []*kir.Kernel {
	t.Helper()
	p, ok := PatternProgram(name)
	if !ok {
		t.Fatalf("%s has no pattern program", name)
	}
	shape, _ := PatternShape(name, Config{})
	l, err := pattern.Lower(p, pattern.Canonical(p), shape)
	if err != nil {
		t.Fatal(err)
	}
	return l.Kernels
}

// TestHostExecutorAgreesWithSimulator runs the FFT forward kernel through
// the kir host reference executor and through the compile+simulate
// pipeline; outputs must agree bit-for-bit. This ties the three execution
// paths (host IR interpretation, CUDA compilation, OpenCL compilation)
// to one semantics on a real benchmark kernel.
func TestHostExecutorAgreesWithSimulator(t *testing.T) {
	const batch = 4
	k := FFTKernel()
	re, im := workload.SignalBatch(batch, fftN, 99)

	// Host reference.
	hostRe := append([]uint32(nil), f32Words(re)...)
	hostIm := append([]uint32(nil), f32Words(im)...)
	outRe := make([]uint32, batch*fftN)
	outIm := make([]uint32, batch*fftN)
	if err := kir.Run(k, kir.RunConfig{
		GridX: batch, GridY: 1, BlockX: fftThreads, BlockY: 1,
		Buffers: map[string][]uint32{
			"inRe": hostRe, "inIm": hostIm, "outRe": outRe, "outIm": outIm,
		},
		Scalars: map[string]uint32{},
	}); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []string{"cuda", "opencl"} {
		d, err := NewDriver(tc, arch.GTX480())
		if err != nil {
			t.Fatal(err)
		}
		mod, err := d.Build(k)
		if err != nil {
			t.Fatal(err)
		}
		bre, _ := allocWriteF(d, re)
		bim, _ := allocWriteF(d, im)
		bor, _ := allocZero(d, batch*fftN)
		boi, _ := allocZero(d, batch*fftN)
		if err := d.Launch(mod, "forward", sim.Dim3{X: batch, Y: 1}, sim.Dim3{X: fftThreads, Y: 1},
			B(bre), B(bim), B(bor), B(boi)); err != nil {
			t.Fatal(err)
		}
		gotRe, err := readWords(d, bor, batch*fftN)
		if err != nil {
			t.Fatal(err)
		}
		gotIm, err := readWords(d, boi, batch*fftN)
		if err != nil {
			t.Fatal(err)
		}
		for i := range outRe {
			if gotRe[i] != outRe[i] || gotIm[i] != outIm[i] {
				t.Fatalf("%s: bit mismatch with host executor at %d", tc, i)
			}
		}
	}
}
