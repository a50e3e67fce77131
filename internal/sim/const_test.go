package sim

import (
	"errors"
	"runtime"
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/compiler"
	"gpucmp/internal/kir"
)

// constProbeKIR stores c[0] (every lane reads one address) or c[tid] (every
// lane its own) to out[gid]; the launch aims c anywhere in the constant
// window by passing the byte offset as the buffer argument.
func constProbeKIR(divergent bool) *kir.Kernel {
	b := kir.NewKernel("constprobe")
	c := b.ConstBuffer("c", kir.U32)
	out := b.GlobalBuffer("out", kir.U32)
	var idx kir.Expr = kir.U(0)
	if divergent {
		idx = kir.Bi(kir.TidX)
	}
	b.Store(out, b.GlobalIDX(), b.Load(c, idx))
	return b.MustBuild()
}

// TestConstSegmentContract pins what a kernel and a host see of the constant
// segment, on both engines, with expectations recorded before the segment
// became lazily committed: the window is 64 KiB whatever has been written,
// an offset inside it that nobody wrote reads 0, the first byte past it
// faults, and ConstReset forgets allocations, not contents.
func TestConstSegmentContract(t *testing.T) {
	const lanes = 32
	pattern := func(seed uint32, n int) []uint32 {
		w := make([]uint32, n)
		for i := range w {
			w[i] = seed + uint32(i)
		}
		return w
	}
	repeat := func(v uint32) []uint32 {
		w := make([]uint32, lanes)
		for i := range w {
			w[i] = v
		}
		return w
	}
	zeros := repeat(0)
	// After stage: 256 words of 0xA000+i at offset 256, then a reset and
	// four words of 0xB000+i over the first four.
	staged := append(pattern(0xB000, 4), pattern(0xA004, lanes-4)...)

	cases := []struct {
		name      string
		divergent bool
		off       uint32
		want      []uint32
		wantErr   string
	}{
		{name: "written/uniform", off: 256, want: repeat(0xB000)},
		{name: "written/divergent", divergent: true, off: 256, want: staged},
		{name: "kept-across-reset/uniform", off: 256 + 4*100, want: repeat(0xA000 + 100)},
		{name: "never-written/uniform", off: 0x8000, want: zeros},
		{name: "never-written/divergent", divergent: true, off: 0x8000, want: zeros},
		{name: "last-word/uniform", off: constSegBytes - 4, want: zeros},
		{name: "last-words/divergent", divergent: true, off: constSegBytes - 4*lanes, want: zeros},
		{name: "past-window/uniform", off: constSegBytes,
			wantErr: "sim: constprobe: pc 2 (ld.const.u32): constant access at 0x10000 beyond segment"},
		{name: "past-window/divergent", divergent: true, off: constSegBytes - 16,
			wantErr: "sim: constprobe: pc 3 (ld.const.u32): constant access at 0x10000 beyond segment"},
	}
	for _, eng := range []Engine{EngineReference, EngineThreaded} {
		for _, tc := range cases {
			t.Run(eng.String()+"/"+tc.name, func(t *testing.T) {
				d := newDev(t, arch.GTX480())
				d.Engine = eng
				d.Parallel = false
				off, err := d.ConstAlloc(1024)
				if err != nil || off != 256 {
					t.Fatalf("ConstAlloc = %d, %v; want 256", off, err)
				}
				if err := d.ConstWrite(off, pattern(0xA000, 256)); err != nil {
					t.Fatal(err)
				}
				d.ConstReset()
				if off, err = d.ConstAlloc(16); err != nil || off != 256 {
					t.Fatalf("ConstAlloc after reset = %d, %v; want 256", off, err)
				}
				if err := d.ConstWrite(off, pattern(0xB000, 4)); err != nil {
					t.Fatal(err)
				}

				pk := compile(t, constProbeKIR(tc.divergent), compiler.CUDA())
				outAddr := uploadU32(t, d, repeat(0xDEAD))
				_, err = d.Launch(pk, Dim3{X: 1, Y: 1}, Dim3{X: lanes, Y: 1}, []uint32{tc.off, outAddr})
				if tc.wantErr != "" {
					if err == nil || err.Error() != tc.wantErr {
						t.Fatalf("launch error = %v\nwant %s", err, tc.wantErr)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				got := make([]uint32, lanes)
				if err := d.Global.ReadWords(outAddr, got); err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if got[i] != tc.want[i] {
						t.Fatalf("out[%d] = %#x, want %#x", i, got[i], tc.want[i])
					}
				}
			})
		}
	}
}

// TestConstWriteRange: a write is checked against the 64 KiB window, not
// against what has been allocated or committed, and a rejected one is a
// typed error.
func TestConstWriteRange(t *testing.T) {
	d := newDev(t, arch.GTX480())
	for _, tc := range []struct {
		name string
		off  uint32
		n    int
		ok   bool
	}{
		{"unallocated offset inside the window", 0x4000, 8, true},
		{"last word", constSegBytes - 4, 1, true},
		{"empty write at the end", constSegBytes, 0, true},
		{"one word past the window", constSegBytes - 4, 2, false},
		{"starts past the window", constSegBytes + 4, 1, false},
		{"misaligned", 258, 1, false},
	} {
		err := d.ConstWrite(tc.off, make([]uint32, tc.n))
		if tc.ok {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: error %v does not wrap ErrInvalidConfig", tc.name, err)
		}
		if err == nil || err.Error() != "sim: constant write out of range: "+ErrInvalidConfig.Error() {
			t.Errorf("%s: error = %v", tc.name, err)
		}
	}
	if _, err := d.ConstAlloc(constSegBytes); !errors.Is(err, ErrOutOfResources) {
		t.Errorf("ConstAlloc past the window = %v, want ErrOutOfResources", err)
	}
}

// TestNewDeviceCommitsNoConstants: a fresh device holds the 256-byte
// parameter area and none of the 64 KiB constant window behind it (a fuzz
// op builds ten devices and most write no constants at all).
func TestNewDeviceCommitsNoConstants(t *testing.T) {
	a := arch.GTX480()
	newDev(t, a) // first use pays one-off initialisation
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := newDev(t, a)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<10 {
		t.Errorf("NewDevice allocated %d bytes, want < 8 KiB", got)
	}
	if len(d.constSeg)*4 != paramAreaBytes {
		t.Errorf("fresh constant segment commits %d bytes, want the %d-byte parameter area", len(d.constSeg)*4, paramAreaBytes)
	}
}
