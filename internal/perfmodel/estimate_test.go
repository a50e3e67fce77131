package perfmodel_test

import (
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/perfmodel"
)

// TestEstimateCoversEveryRateMetric: the degraded estimate exists for
// exactly the registered benchmarks whose metric is a rate, on every
// device and toolchain, so a breaker-open /run of any of them gets the
// first rung of the degradation ladder.
func TestEstimateCoversEveryRateMetric(t *testing.T) {
	for _, a := range arch.All() {
		for _, tc := range bench.Toolchains(a) {
			for _, spec := range bench.Registry() {
				v, ok := perfmodel.Estimate(a, tc.Costs, spec.Metric)
				if ok == bench.LowerIsBetter(spec.Metric) {
					t.Errorf("%s (%s) on %s via %s: estimate ok=%v", spec.Name, spec.Metric, a.Name, tc.Name, ok)
				}
				if ok && !(v > 0) {
					t.Errorf("%s on %s via %s: estimate %v %s", spec.Name, a.Name, tc.Name, v, spec.Metric)
				}
			}
		}
	}
}
