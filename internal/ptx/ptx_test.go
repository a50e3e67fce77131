package ptx

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestClassOfCoversAllOpcodes(t *testing.T) {
	for op := OpInvalid + 1; op < numOpcodes; op++ {
		c := ClassOf(op)
		if c < 0 || c >= NumClasses {
			t.Errorf("ClassOf(%v) = %v out of range", op, c)
		}
	}
}

func TestClassOfMatchesTableVGrouping(t *testing.T) {
	cases := map[Opcode]Class{
		OpAdd: ClassArithmetic, OpSub: ClassArithmetic, OpMul: ClassArithmetic,
		OpDiv: ClassArithmetic, OpFma: ClassArithmetic, OpMad: ClassArithmetic,
		OpNeg: ClassArithmetic,
		OpAnd: ClassLogicShift, OpOr: ClassLogicShift, OpNot: ClassLogicShift,
		OpXor: ClassLogicShift, OpShl: ClassLogicShift, OpShr: ClassLogicShift,
		OpCvt: ClassDataMovement, OpMov: ClassDataMovement,
		OpLd: ClassDataMovement, OpSt: ClassDataMovement, OpTex: ClassDataMovement,
		OpSetp: ClassFlowControl, OpSelp: ClassFlowControl, OpBra: ClassFlowControl,
		OpBar: ClassSync,
	}
	for op, want := range cases {
		if got := ClassOf(op); got != want {
			t.Errorf("ClassOf(%v) = %v, want %v", op, got, want)
		}
	}
}

func TestMnemonics(t *testing.T) {
	ld := NewInstruction(OpLd)
	ld.Space = SpaceGlobal
	ld.Typ = F32
	if got := ld.Mnemonic(); got != "ld.global.f32" {
		t.Errorf("mnemonic = %q", got)
	}
	st := NewInstruction(OpSt)
	st.Space = SpaceShared
	st.Typ = U32
	if got := st.Mnemonic(); got != "st.shared.u32" {
		t.Errorf("mnemonic = %q", got)
	}
	bar := NewInstruction(OpBar)
	if got := bar.Mnemonic(); got != "bar.sync" {
		t.Errorf("mnemonic = %q", got)
	}
	setp := NewInstruction(OpSetp)
	setp.Cmp = CmpLT
	setp.Typ = S32
	if got := setp.Mnemonic(); got != "setp.lt.s32" {
		t.Errorf("mnemonic = %q", got)
	}
	atom := NewInstruction(OpAtom)
	atom.Space = SpaceGlobal
	atom.Atom = AtomAdd
	atom.Typ = U32
	if got := atom.Mnemonic(); got != "atom.global.add.u32" {
		t.Errorf("mnemonic = %q", got)
	}
}

func TestInstructionStringGuard(t *testing.T) {
	in := NewInstruction(OpBra)
	in.Target = 7
	in.GuardPred = 3
	in.GuardNeg = true
	s := in.String()
	if !strings.HasPrefix(s, "@!%p3 ") || !strings.Contains(s, "L7") {
		t.Errorf("guarded branch rendered as %q", s)
	}
}

func buildTestKernel() *Kernel {
	k := &Kernel{Name: "k", Toolchain: "cuda", NumRegs: 8}
	add := NewInstruction(OpAdd)
	add.Typ = U32
	add.Dst = 0
	add.Src[0] = R(1)
	add.Src[1] = ImmU(4)
	ld := NewInstruction(OpLd)
	ld.Space = SpaceGlobal
	ld.Typ = F32
	ld.Dst = 2
	ld.Src[0] = R(0)
	bra := NewInstruction(OpBra)
	bra.Target = 0
	bra.Join = 3
	k.Instrs = []Instruction{add, ld, bra}
	return k
}

func TestKernelValidate(t *testing.T) {
	k := buildTestKernel()
	if err := k.Validate(); err != nil {
		t.Fatalf("valid kernel rejected: %v", err)
	}
	// Whole messages, as they read before Validate stopped formatting on
	// the success path.
	for _, tc := range []struct {
		name   string
		mutate func(k *Kernel)
		want   string
	}{
		{"out-of-range dst", func(k *Kernel) { k.Instrs[0].Dst = 100 },
			"ptx: k: pc 0: dst register 100 out of range [0,8)"},
		{"out-of-range branch target", func(k *Kernel) { k.Instrs[2].Target = 99 },
			"ptx: k: pc 2: branch target 99 out of range"},
		{"negative join", func(k *Kernel) { k.Instrs[2].Join = -1 },
			"ptx: k: pc 2: join -1 out of range"},
		{"negative src register", func(k *Kernel) { k.Instrs[1].Src[0] = R(-2) },
			"ptx: k: pc 1: src0 register -2 out of range [0,8)"},
		{"guard at NumRegs", func(k *Kernel) { k.Instrs[1].GuardPred = 8 },
			"ptx: k: pc 1: guard register 8 out of range [0,8)"},
		{"undefined opcode", func(k *Kernel) { k.Instrs[1].Op = numOpcodes },
			"ptx: k: pc 1: invalid opcode"},
	} {
		bad := buildTestKernel()
		tc.mutate(bad)
		if err := bad.Validate(); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Validate = %v, want %s", tc.name, err, tc.want)
		}
	}
}

// TestValidateAllocatesNothing: the compiler validates every kernel it
// returns, so a valid kernel must cost a scan and nothing else.
func TestValidateAllocatesNothing(t *testing.T) {
	k := &Kernel{Name: "long", NumRegs: 16}
	for i := 0; i < 1000; i++ {
		mad := NewInstruction(OpMad)
		mad.Typ = F32
		mad.Dst = Reg(i % 16)
		mad.GuardPred = Reg((i + 1) % 16)
		mad.Src[0], mad.Src[1], mad.Src[2] = R(Reg((i+2)%16)), R(Reg((i+3)%16)), ImmU(uint32(i))
		k.Instrs = append(k.Instrs, mad)
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() { _ = k.Validate() }); n != 0 {
		t.Errorf("a valid 1000-instruction kernel validates with %.0f allocations, want 0", n)
	}
}

func TestStaticStats(t *testing.T) {
	k := buildTestKernel()
	s := k.StaticStats()
	if s.Total != 3 {
		t.Fatalf("total = %d, want 3", s.Total)
	}
	if s.Get(OpAdd, SpaceNone) != 1 || s.Get(OpLd, SpaceGlobal) != 1 || s.Get(OpBra, SpaceNone) != 1 {
		t.Errorf("per-op counts wrong: %+v", s.ByOp)
	}
	if s.Class(ClassArithmetic) != 1 || s.Class(ClassDataMovement) != 1 || s.Class(ClassFlowControl) != 1 {
		t.Errorf("class counts wrong: %+v", s.ByClass)
	}
}

func TestStatsMergePreservesTotals(t *testing.T) {
	// Property: merging two stats objects yields class counts equal to the
	// sum, and total equal to the sum of totals, for arbitrary op mixes.
	f := func(adds, lds, bars uint8) bool {
		a, b := NewStats(), NewStats()
		add := NewInstruction(OpAdd)
		ld := NewInstruction(OpLd)
		ld.Space = SpaceGlobal
		bar := NewInstruction(OpBar)
		a.Count(&add, int64(adds))
		b.Count(&ld, int64(lds))
		b.Count(&bar, int64(bars))
		a.Merge(b)
		return a.Total == int64(adds)+int64(lds)+int64(bars) &&
			a.Class(ClassArithmetic) == int64(adds) &&
			a.Class(ClassDataMovement) == int64(lds) &&
			a.Class(ClassSync) == int64(bars)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowsSortedByClass(t *testing.T) {
	s := NewStats()
	bar := NewInstruction(OpBar)
	add := NewInstruction(OpAdd)
	shl := NewInstruction(OpShl)
	s.Count(&bar, 1)
	s.Count(&add, 2)
	s.Count(&shl, 3)
	rows := s.Rows()
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if rows[0].Key.Op != OpAdd || rows[1].Key.Op != OpShl || rows[2].Key.Op != OpBar {
		t.Errorf("rows out of class order: %v", rows)
	}
}

func TestCompareTableLayout(t *testing.T) {
	a, b := NewStats(), NewStats()
	add := NewInstruction(OpAdd)
	a.Count(&add, 93)
	b.Count(&add, 191)
	out := CompareTable("CUDA", a, "OpenCL", b)
	for _, want := range []string{"Arithmetic", "add", "93", "191", "SUB-TOTAL", "TOTAL"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestModuleLookup(t *testing.T) {
	m := NewModule("fft")
	m.Add(buildTestKernel())
	if _, err := m.Kernel("k"); err != nil {
		t.Errorf("lookup failed: %v", err)
	}
	if _, err := m.Kernel("nope"); err == nil {
		t.Error("missing kernel lookup should fail")
	}
}

func TestDisassembleContainsHeaderAndParams(t *testing.T) {
	k := buildTestKernel()
	k.Params = []Param{{Name: "out", Pointer: true, Space: SpaceGlobal}, {Name: "n", Type: U32}}
	text := k.Disassemble()
	for _, want := range []string{".entry k", "toolchain=cuda", ".param ptr.global out", ".param u32 n", "ld.global.f32"} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly missing %q:\n%s", want, text)
		}
	}
}

func TestOperandString(t *testing.T) {
	if got := ImmU(16).String(); got != "0x10" {
		t.Errorf("imm operand = %q", got)
	}
	if got := R(5).String(); false {
		_ = got
	}
	if got := (Operand{Reg: 5}).String(); got != "%r5" {
		t.Errorf("reg operand = %q", got)
	}
}
