package bench

import (
	"fmt"
	"testing"

	"gpucmp/internal/arch"
)

// TestFDTDAgainstReference sweeps FDTD over several grid sizes (Scale
// divides the paper's 96x96 plane), all four unroll-point placements
// (Fig. 6/7), and both toolchains. RunFDTD checks the interior of every
// computed z-plane against the pure-Go stencil fdtdRef; Correct=false is
// the Table VI "FL" state and fails the test, as does any abort.
func TestFDTDAgainstReference(t *testing.T) {
	scales := []int{8, 4, 2} // 16x16, 24x24 and 48x48 planes
	unrolls := []struct{ a, b bool }{
		{false, false}, {true, false}, {false, true}, {true, true},
	}

	for _, tc := range []string{"cuda", "opencl"} {
		for _, scale := range scales {
			for _, u := range unrolls {
				name := fmt.Sprintf("%s/scale%d/unrollA=%v/unrollB=%v", tc, scale, u.a, u.b)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					d, err := NewDriver(tc, arch.GTX280())
					if err != nil {
						t.Fatal(err)
					}
					r, err := RunFDTD(d, Config{Scale: scale, UnrollA: u.a, UnrollB: u.b})
					if err != nil {
						t.Fatal(err)
					}
					if r.Err != nil {
						t.Fatalf("FDTD aborted (%s): %v", r.Status(), r.Err)
					}
					if !r.Correct {
						t.Fatalf("FDTD output diverges from fdtdRef (%s)", r.Status())
					}
					if r.Value <= 0 {
						t.Fatalf("non-positive throughput %v %s", r.Value, r.Metric)
					}
				})
			}
		}
	}
}

// TestFDTDUnrollChangesSchedule: the unroll pragmas must actually change
// the generated code — same answers, different instruction schedules. The
// paper's Fig. 6/7 effect depends on this.
func TestFDTDUnrollChangesSchedule(t *testing.T) {
	counts := map[bool]int64{}
	for _, ua := range []bool{false, true} {
		d, err := NewDriver("cuda", arch.GTX280())
		if err != nil {
			t.Fatal(err)
		}
		r, err := RunFDTD(d, Config{Scale: 4, UnrollA: ua, UnrollB: true})
		if err != nil || r.Err != nil {
			t.Fatal(err, r.Err)
		}
		if !r.Correct {
			t.Fatalf("unrollA=%v: incorrect output", ua)
		}
		if len(r.Traces) == 0 {
			t.Fatal("no trace recorded")
		}
		counts[ua] = r.Traces[0].Dyn.Total
	}
	if counts[false] == counts[true] {
		t.Fatalf("unroll point a had no effect on the dynamic instruction count (%d)", counts[false])
	}
}

// TestFDTDRefInterior: sanity-check the reference itself — a constant
// field is a fixpoint of the stencil when the coefficients sum to 1, and
// the halo (outside the interior) is always passed through untouched.
func TestFDTDRefInterior(t *testing.T) {
	const w, h, zdim = 24, 24, 16
	var sum float32
	for i, c := range fdtdCoeffs {
		sum += c
		if i > 0 {
			sum += 5 * c // each non-centre weight hits 6 neighbours (2 per axis)
		}
	}
	in := make([]float32, w*h*zdim)
	for i := range in {
		in[i] = 2.0
	}
	out := fdtdRef(in, w, h, zdim)
	for i := range out {
		want := in[i]
		x, y, z := i%w, (i/w)%h, i/(w*h)
		interior := x >= fdtdRadius && x < w-fdtdRadius &&
			y >= fdtdRadius && y < h-fdtdRadius &&
			z >= fdtdRadius && z < zdim-fdtdRadius-1
		if interior {
			want = 2.0 * sum
		}
		if !f32eq(out[i], want, 1e-5) {
			t.Fatalf("out[%d] (x=%d y=%d z=%d interior=%v) = %v, want %v",
				i, x, y, z, interior, out[i], want)
		}
	}
}
