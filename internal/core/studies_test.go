package core

import (
	"fmt"
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/sched"
)

// study regenerates one row's data on its own devices.
func study[T any](t *testing.T, id string, scale int) T {
	t.Helper()
	f, ok := FigureByID(id)
	if !ok {
		t.Fatalf("no %s row", id)
	}
	data, err := f.Study(Direct, f.Devices(), scale)
	if err != nil {
		t.Fatal(err)
	}
	return data.(T)
}

// TestPatternRowClaims checks the pattern row's two claims at the reduced
// scale (32) and at the scale EXPERIMENTS.md quotes (8): on every GPU the
// autotuned schedules' geomean slowdown against the default kernel
// sources is at most 1.25x, and some benchmark's winning schedule differs
// across devices.
func TestPatternRowClaims(t *testing.T) {
	for _, scale := range []int{32, 8} {
		t.Run(fmt.Sprintf("scale%d", scale), func(t *testing.T) {
			t.Parallel()
			o := study[patternResult](t, "pattern", scale)
			if len(o.Summary.GeomeanRatio) != len(gpus()) {
				t.Fatalf("geomeans for %d devices, want %d: %v", len(o.Summary.GeomeanRatio), len(gpus()), o.Summary.GeomeanRatio)
			}
			for dev, g := range o.Summary.GeomeanRatio {
				if g > 1.25 {
					t.Errorf("%s: geomean autotuned-vs-hand slowdown %.3fx above 1.25x", dev, g)
				}
			}
			if len(o.Summary.WinnerFlips) == 0 {
				t.Error("every device picked the same winning schedule for every benchmark")
			}
		})
	}
}

// TestCoexecRowFlips checks the coexec row's claim at the reduced scale
// (4) and at full size (1): counting transfers reorders at least one pair
// of devices.
func TestCoexecRowFlips(t *testing.T) {
	for _, scale := range []int{4, 1} {
		t.Run(fmt.Sprintf("scale%d", scale), func(t *testing.T) {
			t.Parallel()
			o := study[coexecResult](t, "coexec", scale)
			flips := 0
			for _, rk := range o.Rankings {
				flips += len(rk.Flips)
			}
			if flips == 0 {
				t.Error("no ranking flip once transfers count")
			}
			if len(o.Splits) != 2*len(o.Rankings) || len(o.Recovery) != len(o.Rankings) {
				t.Errorf("%d splits and %d recoveries for %d workloads", len(o.Splits), len(o.Recovery), len(o.Rankings))
			}
		})
	}
}

// TestStudiesNarrowToDevices: given fewer devices, the grid keeps only
// their cells and the co-execution study only the splits they make up.
func TestStudiesNarrowToDevices(t *testing.T) {
	grid, _ := FigureByID("grid")
	data, err := grid.Study(Direct, []*arch.Device{arch.Intel920()}, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, j := range sched.GridJobs(16) {
		if j.Device == arch.Intel920().Name {
			want++
		}
	}
	if cells := data.([]gridCell); len(cells) != want {
		t.Errorf("grid on one device: %d cells, want %d", len(cells), want)
	}

	co, _ := FigureByID("coexec")
	data, err = co.Study(Direct, []*arch.Device{arch.GTX480(), arch.GTX280()}, 16)
	if err != nil {
		t.Fatal(err)
	}
	o := data.(coexecResult)
	if len(o.Rankings) != 3 || len(o.Splits) != 3 || len(o.Recovery) != 0 {
		t.Errorf("coexec on two GPUs: %d rankings, %d splits, %d recoveries; want 3, 3, 0",
			len(o.Rankings), len(o.Splits), len(o.Recovery))
	}
}
