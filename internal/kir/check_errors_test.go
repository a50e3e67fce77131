package kir

import (
	"errors"
	"testing"
)

// outKernel returns a minimal kernel skeleton with one global out buffer,
// ready to have a hostile body attached.
func outKernel(body ...Stmt) *Kernel {
	return &Kernel{
		Name:   "hostile",
		Params: []Param{{Name: "out", T: U32, Buffer: true, Space: Global}},
		Body:   body,
	}
}

// TestCheckTypedErrors: every class of static rejection matches its
// sentinel under errors.Is and maps to a stable machine code — the
// contract the kernel-submission API builds its error responses on.
func TestCheckTypedErrors(t *testing.T) {
	cases := []struct {
		name     string
		kernel   *Kernel
		check    func(*Kernel) error
		sentinel error
		code     string
	}{
		{
			name:     "store of float into u32 buffer",
			kernel:   outKernel(&StoreStmt{Buf: "out", Index: U(0), Value: F(1.5)}),
			check:    Check,
			sentinel: ErrBadOperand,
			code:     "bad-operand",
		},
		{
			name:     "use of undeclared variable",
			kernel:   outKernel(&StoreStmt{Buf: "out", Index: &VarRef{Name: "ghost", T: U32}, Value: U(1)}),
			check:    Check,
			sentinel: ErrUndeclared,
			code:     "undeclared",
		},
		{
			name:     "store to unknown buffer",
			kernel:   outKernel(&StoreStmt{Buf: "nosuch", Index: U(0), Value: U(1)}),
			check:    Check,
			sentinel: ErrUndeclared,
			code:     "undeclared",
		},
		{
			name: "redeclaration",
			kernel: outKernel(
				&DeclStmt{Name: "x", T: U32, Init: U(1)},
				&DeclStmt{Name: "x", T: U32, Init: U(2)},
			),
			check:    Check,
			sentinel: ErrRedeclared,
			code:     "redeclared",
		},
		{
			name: "store to read-only const buffer",
			kernel: &Kernel{
				Name: "hostile",
				Params: []Param{
					{Name: "coef", T: U32, Buffer: true, Space: Const},
					{Name: "out", T: U32, Buffer: true, Space: Global},
				},
				Body: []Stmt{&StoreStmt{Buf: "coef", Index: U(0), Value: U(1)}},
			},
			check:    Check,
			sentinel: ErrReadOnlyStore,
			code:     "read-only-store",
		},
		{
			name:     "nil expression",
			kernel:   outKernel(&StoreStmt{Buf: "out", Index: nil, Value: U(1)}),
			check:    Check,
			sentinel: ErrBadNode,
			code:     "bad-node",
		},
		{
			name: "barrier under divergent if",
			kernel: outKernel(&IfStmt{
				Cond: &Bin{Op: OpLt, L: &Builtin{Kind: TidX}, R: U(3)},
				Then: []Stmt{&BarrierStmt{}},
			}),
			check:    CheckUniformBarriers,
			sentinel: ErrNonUniformBarrier,
			code:     "nonuniform-barrier",
		},
		{
			name: "constant zero-step loop",
			kernel: outKernel(&ForStmt{
				Var: "i", T: U32, Init: U(0), Limit: U(10), Step: U(0),
			}),
			check:    CheckBoundedLoops,
			sentinel: ErrUnboundedLoop,
			code:     "unbounded-loop",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.check(tc.kernel)
			if err == nil {
				t.Fatal("hostile kernel accepted")
			}
			if !errors.Is(err, tc.sentinel) {
				t.Errorf("errors.Is(%v, %v) = false", err, tc.sentinel)
			}
			if got := ErrCode(err); got != tc.code {
				t.Errorf("ErrCode = %q, want %q", got, tc.code)
			}
			// A rejection must match exactly its own sentinel: no error may
			// be ambiguous between two codes.
			all := []error{ErrBadOperand, ErrUndeclared, ErrRedeclared,
				ErrReadOnlyStore, ErrBadNode, ErrNonUniformBarrier, ErrUnboundedLoop}
			matches := 0
			for _, s := range all {
				if errors.Is(err, s) {
					matches++
				}
			}
			if matches != 1 {
				t.Errorf("error matches %d sentinels, want exactly 1", matches)
			}
		})
	}
}

// TestDecodeTypedErrors: malformed encodings reject with ErrBadEncoding.
func TestDecodeTypedErrors(t *testing.T) {
	cases := []struct {
		name string
		kj   KernelJSON
	}{
		{"unknown param type", KernelJSON{Name: "k",
			Params: []ParamJSON{{Name: "p", Type: "u64"}}}},
		{"unknown space", KernelJSON{Name: "k",
			Params: []ParamJSON{{Name: "p", Type: "u32", Buffer: true, Space: "flash"}}}},
		{"unknown stmt kind", KernelJSON{Name: "k",
			Body: []StmtJSON{{Kind: "goto"}}}},
		{"unknown expr kind", KernelJSON{Name: "k",
			Body: []StmtJSON{{Kind: "decl", Name: "x", Value: &ExprJSON{Kind: "lambda"}}}}},
		{"unknown op", KernelJSON{Name: "k",
			Body: []StmtJSON{{Kind: "decl", Name: "x", Value: &ExprJSON{
				Kind: "bin", Op: "**",
				L: &ExprJSON{Kind: "int", Type: "u32"},
				R: &ExprJSON{Kind: "int", Type: "u32"}}}}}},
		{"missing subtree", KernelJSON{Name: "k",
			Body: []StmtJSON{{Kind: "store", Buf: "out"}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			kj := tc.kj
			_, err := DecodeKernelJSON(&kj)
			if err == nil {
				t.Fatal("malformed encoding accepted")
			}
			if !errors.Is(err, ErrBadEncoding) {
				t.Errorf("errors.Is(%v, ErrBadEncoding) = false", err)
			}
			if got := ErrCode(err); got != "bad-encoding" {
				t.Errorf("ErrCode = %q, want bad-encoding", got)
			}
		})
	}
}

// TestJSONRoundTrip: encode→decode is the identity on a kernel exercising
// every statement and expression kind.
func TestJSONRoundTrip(t *testing.T) {
	b := NewKernel("rt")
	in := b.GlobalBuffer("in", U32)
	out := b.GlobalBuffer("out", U32)
	s := b.ScalarParam("s", U32)
	sh := b.SharedArray("sh", U32, 64)
	gid := b.Declare("gid", b.GlobalIDX())
	b.Store(sh, gid, b.Load(in, gid))
	b.Barrier()
	v := b.Declare("v", &Sel{Cond: &Bin{Op: OpLt, L: gid, R: s}, A: U(1), B: U(2)})
	b.For("i", U(0), U(4), U(1), func(i Expr) {
		b.Assign(v, &Bin{Op: OpAdd, L: v, R: i})
	})
	b.Atomic(out, U(0), AtomicAdd, v)
	b.Store(out, gid, &Un{Op: OpNot, X: b.Load(sh, gid)})
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	kj := EncodeKernelJSON(k)
	k2, err := DecodeKernelJSON(&kj)
	if err != nil {
		t.Fatal(err)
	}
	if Format(k) != Format(k2) {
		t.Errorf("round trip changed the kernel:\n%s\nvs\n%s", Format(k), Format(k2))
	}
}
