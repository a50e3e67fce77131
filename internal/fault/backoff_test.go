package fault

import (
	"testing"
	"time"
)

func TestBackoffDoublesToCeiling(t *testing.T) {
	base, ceiling := 200*time.Microsecond, 5*time.Millisecond
	for n, want := range map[int]time.Duration{
		1:   200 * time.Microsecond,
		2:   400 * time.Microsecond,
		5:   3200 * time.Microsecond,
		6:   ceiling, // 6.4ms, capped
		60:  ceiling, // the shift alone would overflow
		100: ceiling,
	} {
		if got := Backoff(base, ceiling, n); got != want {
			t.Errorf("Backoff(%v, %v, %d) = %v, want %v", base, ceiling, n, got, want)
		}
	}
}
