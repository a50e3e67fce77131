package main

import (
	"bytes"
	"testing"

	"gpucmp/internal/golden"
)

// checkGolden compares run(args) with testdata/<name> byte for byte, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name string, args ...string) {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/"+name, buf.Bytes())
}

// TestPrintsGolden pins what every id prints, at scale 16 where the id
// runs experiment cells and with each flag's default otherwise. pattern
// and coexec are pinned at the scales EXPERIMENTS.md quotes (8 and 1), and
// fair_fft.golden is the FFT audit at full size. Several ids in one call
// print as one document: the figures the paper shows side by side come
// out as one golden.
func TestPrintsGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"fig1_fig2.golden", []string{"-scale", "16", "fig1", "fig2"}},
		{"fig3.golden", []string{"-scale", "16", "fig3"}},
		{"fig4_fig5.golden", []string{"-scale", "16", "fig4", "fig5"}},
		{"fig6_fig7.golden", []string{"-scale", "16", "fig6", "fig7"}},
		{"fig8.golden", []string{"-scale", "16", "fig8"}},
		{"tableV.golden", []string{"tableV"}},
		{"tableV_v.golden", []string{"-v", "tableV"}},
		{"tableVI.golden", []string{"-scale", "16", "tableVI"}},
		{"fair.golden", []string{"-scale", "16", "fair"}},
		{"fair_v.golden", []string{"-scale", "16", "-v", "fair"}},
		{"fair_fft.golden", []string{"-bench", "FFT", "fair"}},
		{"profile.golden", []string{"-scale", "16", "profile"}},
		{"grid.golden", []string{"-scale", "16", "grid"}},
		{"tune.golden", []string{"-scale", "16", "tune"}},
		{"pattern.golden", []string{"-scale", "8", "pattern"}},
		{"coexec.golden", []string{"-scale", "1", "coexec"}},
	} {
		t.Run(tc.golden, func(t *testing.T) { checkGolden(t, tc.golden, tc.args...) })
	}
}

// TestPassReportGolden pins the passes report byte-for-byte. The report is
// a pure function of the compiler: if it drifts, either a pass changed
// behaviour (inspect the diff, then regenerate with -update) or determinism
// broke (same config must compile to bit-identical PTX).
func TestPassReportGolden(t *testing.T) {
	checkGolden(t, "passes.golden", "passes")
}

// TestPassReportStable runs the report twice in-process: identical configs
// must produce identical reports, pass deltas included.
func TestPassReportStable(t *testing.T) {
	var a, b bytes.Buffer
	if err := run([]string{"passes"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"passes"}, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("pass report differs between identical runs")
	}
}

// TestRejectsUnknownInput: a mistyped id, device or benchmark is an error,
// not empty output.
func TestRejectsUnknownInput(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"fig9"},
		{"-device", "GTX9000", "fig8"},
		{"-bench", "NoSuch", "fair"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("paper %q: no error", args)
		}
	}
}
