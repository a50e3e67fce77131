package fault

import "time"

// Backoff is the capped exponential delay before retry number n (1-based)
// of a failed attempt: base doubled n-1 times, and never more than ceiling.
// The scheduler's job retries and co-execution's shard retries both wait
// this long (the scheduler then jitters it).
func Backoff(base, ceiling time.Duration, n int) time.Duration {
	shift := uint(n - 1)
	if shift >= 63 || base > ceiling>>shift {
		return ceiling
	}
	return base << shift
}
