package ptx_test

import (
	"fmt"
	"strings"
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/compiler"
	"gpucmp/internal/fuzz"
	"gpucmp/internal/ptx"
)

// The listing as the fmt-based Disassemble, Instruction.String and
// Operand.String wrote it: the specification the append-based ones are held
// to, byte for byte.

func fmtOperand(o ptx.Operand) string {
	switch {
	case o.IsImm:
		return fmt.Sprintf("0x%x", o.Imm)
	case o.IsSpec:
		return o.Spec.String()
	default:
		return fmt.Sprintf("%%r%d", o.Reg)
	}
}

func fmtMnemonic(in *ptx.Instruction) string {
	var b strings.Builder
	b.WriteString(in.Op.String())
	switch in.Op {
	case ptx.OpLd, ptx.OpSt:
		b.WriteByte('.')
		b.WriteString(in.Space.String())
	case ptx.OpTex:
		b.WriteString(".1d")
	case ptx.OpAtom:
		b.WriteByte('.')
		b.WriteString(in.Space.String())
		b.WriteByte('.')
		b.WriteString(in.Atom.String())
	case ptx.OpSetp:
		b.WriteByte('.')
		b.WriteString(in.Cmp.String())
	case ptx.OpBar:
		b.WriteString(".sync")
	}
	switch in.Op {
	case ptx.OpBra, ptx.OpBar, ptx.OpRet:
	case ptx.OpCvt:
		b.WriteByte('.')
		b.WriteString(in.Typ.String())
		b.WriteByte('.')
		b.WriteString(in.SrcTyp.String())
	default:
		b.WriteByte('.')
		b.WriteString(in.Typ.String())
	}
	return b.String()
}

func fmtInstruction(in *ptx.Instruction) string {
	var b strings.Builder
	if in.GuardPred != ptx.NoReg {
		if in.GuardNeg {
			fmt.Fprintf(&b, "@!%%p%d ", in.GuardPred)
		} else {
			fmt.Fprintf(&b, "@%%p%d ", in.GuardPred)
		}
	}
	b.WriteString(fmtMnemonic(in))
	src := func(i int) string { return fmtOperand(in.Src[i]) }
	switch in.Op {
	case ptx.OpBra:
		fmt.Fprintf(&b, " L%d, J%d", in.Target, in.Join)
	case ptx.OpBar, ptx.OpRet:
	case ptx.OpLd, ptx.OpTex:
		fmt.Fprintf(&b, " %%r%d, [%s+%d]", in.Dst, src(0), in.Off)
	case ptx.OpSt:
		fmt.Fprintf(&b, " [%s+%d], %s", src(0), in.Off, src(1))
	case ptx.OpAtom:
		fmt.Fprintf(&b, " %%r%d, [%s+%d], %s", in.Dst, src(0), in.Off, src(1))
	case ptx.OpSetp:
		fmt.Fprintf(&b, " %%p%d, %s, %s", in.Dst, src(0), src(1))
	case ptx.OpSelp:
		fmt.Fprintf(&b, " %%r%d, %s, %s, %%p%d", in.Dst, src(0), src(1), in.Src[2].Reg)
	default:
		fmt.Fprintf(&b, " %%r%d", in.Dst)
		for _, s := range in.Src {
			if !s.IsImm && s.Reg == ptx.NoReg {
				break
			}
			b.WriteString(", ")
			b.WriteString(fmtOperand(s))
		}
	}
	return b.String()
}

func fmtDisassemble(k *ptx.Kernel) string {
	var b strings.Builder
	fmt.Fprintf(&b, ".entry %s  // toolchain=%s regs=%d shared=%dB local=%dB\n",
		k.Name, k.Toolchain, k.NumRegs, k.SharedBytes, k.LocalBytes)
	for _, p := range k.Params {
		kind := p.Type.String()
		if p.Pointer {
			kind = "ptr." + p.Space.String()
		}
		fmt.Fprintf(&b, "  .param %s %s\n", kind, p.Name)
	}
	for pc := range k.Instrs {
		fmt.Fprintf(&b, "L%-4d %s\n", pc, fmtInstruction(&k.Instrs[pc]))
	}
	return b.String()
}

// sameListing fails t at the first line where Disassemble and the fmt
// specification part.
func sameListing(t *testing.T, id string, k *ptx.Kernel) {
	t.Helper()
	got, want := k.Disassemble(), fmtDisassemble(k)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d:\n got %q\nwant %q", id, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", id, len(gl), len(wl))
}

// TestDisassembleMatchesFmtOnBenchmarks: every kernel of the sixteen
// benchmarks, under both personalities, on every device (a benchmark may
// build a different kernel for a different microarchitecture).
func TestDisassembleMatchesFmtOnBenchmarks(t *testing.T) {
	n := 0
	for _, a := range arch.All() {
		for _, toolchain := range []string{"cuda", "opencl"} {
			for _, spec := range bench.Registry() {
				d, err := bench.NewDriver(toolchain, a)
				if err != nil {
					break // no CUDA on this vendor
				}
				if _, err := spec.Run(d, bench.Config{Scale: 16}); err != nil {
					t.Fatalf("%s/%s/%s: %v", spec.Name, a.Name, toolchain, err)
				}
				for _, kr := range bench.KernelReports(d) {
					sameListing(t, spec.Name+"/"+a.Name+"/"+toolchain+"/"+kr.Name, kr.Source())
					n++
				}
			}
		}
	}
	if n < 2*len(bench.Registry()) {
		t.Fatalf("compared %d kernels, want at least one per benchmark and toolchain", n)
	}
}

// TestDisassembleMatchesFmtOnGenerated: Generate(1..2000) under both
// personalities.
func TestDisassembleMatchesFmtOnGenerated(t *testing.T) {
	for seed := uint64(1); seed <= 2000; seed++ {
		p := fuzz.Generate(seed, fuzz.DefaultConfig())
		for _, pers := range fuzz.Toolchains() {
			pk, err := compiler.Compile(p.Kernel, pers)
			if err != nil {
				t.Fatalf("gen:%d/%s: %v", seed, pers.Name, err)
			}
			sameListing(t, fmt.Sprintf("gen:%d/%s", seed, pers.Name), pk)
		}
	}
}

// handBuiltKernel covers every branch of Instruction.String: each opcode
// (and two undefined ones) with plain, negated and no guards, register,
// immediate and special-register sources, a source list cut short by NoReg,
// negative and positive offsets, every type, space, comparison and atomic
// suffix and an out-of-range one of each, and enough instructions that the
// pc label outgrows its four columns.
func handBuiltKernel() *ptx.Kernel {
	sources := [][3]ptx.Operand{
		{ptx.R(1), ptx.R(2), ptx.R(3)},
		{ptx.ImmU(0), ptx.ImmU(0xffffffff), ptx.ImmI(-7)},
		{ptx.R(4), {Reg: ptx.NoReg}, ptx.R(6)},
		{{Reg: ptx.NoReg}, ptx.R(2), ptx.ImmU(1)},
		{ptx.R(0), ptx.ImmU(16), {Reg: ptx.NoReg}},
	}
	for s := ptx.SrTidX; s <= ptx.SrWarpSize+1; s++ {
		sources = append(sources, [3]ptx.Operand{ptx.Sp(s), ptx.Sp(ptx.SrWarpSize + 9 - s), ptx.R(7)})
	}
	guards := []struct {
		pred ptx.Reg
		neg  bool
	}{{ptx.NoReg, false}, {3, false}, {12, true}}
	k := &ptx.Kernel{Name: "hand", Toolchain: "opencl", NumRegs: 16, SharedBytes: 1024, LocalBytes: 8,
		Params: []ptx.Param{
			{Name: "out", Pointer: true, Space: ptx.SpaceGlobal},
			{Name: "coef", Pointer: true, Space: ptx.SpaceConst},
			{Name: "img", Pointer: true, Space: ptx.SpaceTex},
			{Name: "n", Type: ptx.U32},
			{Name: "scale", Type: ptx.F32},
			{Name: "odd", Type: ptx.ScalarType(9)},
		}}
	i := 0
	for op := ptx.OpInvalid; op <= ptx.OpAtom+1; op++ {
		for _, g := range guards {
			for _, src := range sources {
				for _, off := range []int32{0, 12, -4} {
					in := ptx.NewInstruction(op)
					in.GuardPred, in.GuardNeg = g.pred, g.neg
					in.Src = src
					in.Off = off
					in.Dst = ptx.Reg(i % 17) // 16 is out of range for NumRegs; Disassemble does not validate
					if i%11 == 0 {
						in.Dst = ptx.NoReg
					}
					in.Typ = ptx.ScalarType(i % 6)
					in.SrcTyp = ptx.ScalarType((i + 2) % 6)
					in.Space = ptx.Space(i % 8)
					in.Cmp = ptx.CmpOp(i % 7)
					in.Atom = ptx.AtomOp(i % 8)
					in.Target, in.Join = i%50, i%50+3
					k.Instrs = append(k.Instrs, in)
					i++
				}
			}
		}
	}
	for len(k.Instrs) < 10010 {
		k.Instrs = append(k.Instrs, k.Instrs[len(k.Instrs)%900])
	}
	return k
}

func TestDisassembleMatchesFmtOnHandBuilt(t *testing.T) {
	k := handBuiltKernel()
	sameListing(t, "hand", k)
	for pc := range k.Instrs {
		in := &k.Instrs[pc]
		if got, want := in.String(), fmtInstruction(in); got != want {
			t.Fatalf("pc %d: String = %q, want %q", pc, got, want)
		}
		if got, want := in.Mnemonic(), fmtMnemonic(in); got != want {
			t.Fatalf("pc %d: Mnemonic = %q, want %q", pc, got, want)
		}
		for _, o := range in.Src {
			if got, want := o.String(), fmtOperand(o); got != want {
				t.Fatalf("pc %d: Operand.String = %q, want %q", pc, got, want)
			}
		}
	}
	// Spot checks of what the cross product must have produced.
	text := k.Disassemble()
	for _, want := range []string{
		"\nL0    op(0).b32 %r-1, %r1, %r2, %r3\n",
		"@!%p12 ", "@%p3 ", "+-4]", ", 0x0, 0xffffffff, 0xfffffff9",
		"%tid.x", "%nctaid.y", "WARP_SZ", "%sreg(9)",
		"selp.", "\nL10000 ", ".param type(9) odd",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("hand-built listing has no %q", want)
		}
	}
}

var listingSink string

// BenchmarkDisassemble times the listing of Generate(1..50) under the CUDA
// personality, beside the fmt specification it replaced.
func BenchmarkDisassemble(b *testing.B) {
	var ks []*ptx.Kernel
	for seed := uint64(1); seed <= 50; seed++ {
		pk, err := compiler.Compile(fuzz.Generate(seed, fuzz.DefaultConfig()).Kernel, compiler.CUDA())
		if err != nil {
			b.Fatal(err)
		}
		ks = append(ks, pk)
	}
	for _, impl := range []struct {
		name string
		fn   func(*ptx.Kernel) string
	}{{"append", (*ptx.Kernel).Disassemble}, {"fmt", fmtDisassemble}} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				for _, k := range ks {
					listingSink = impl.fn(k)
				}
			}
		})
	}
}
