package cluster

import (
	"fmt"
	"sync"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("job|%d|scale=%d", i, i%7)
	}
	return out
}

// TestRingBalance: with virtual nodes, the key distribution over members
// stays within a reasonable band of perfectly even.
func TestRingBalance(t *testing.T) {
	r := NewRing(virtualNodes)
	members := []string{"http://w1", "http://w2", "http://w3", "http://w4"}
	for _, m := range members {
		r.Add(m)
	}
	counts := make(map[string]int)
	const n = 20000
	for _, k := range keys(n) {
		counts[r.Lookup(k)]++
	}
	want := n / len(members)
	for _, m := range members {
		got := counts[m]
		if got < want*6/10 || got > want*15/10 {
			t.Errorf("member %s owns %d keys, want within [%d,%d] of even %d",
				m, got, want*6/10, want*15/10, want)
		}
	}
}

// TestRingMinimalRemapping: removing one of N members must move only
// that member's keys (~1/N of them); every other key keeps its shard.
// Re-adding it must restore the original routing exactly.
func TestRingMinimalRemapping(t *testing.T) {
	r := NewRing(virtualNodes)
	members := []string{"http://w1", "http://w2", "http://w3", "http://w4"}
	for _, m := range members {
		r.Add(m)
	}
	ks := keys(20000)
	before := make(map[string]string, len(ks))
	for _, k := range ks {
		before[k] = r.Lookup(k)
	}

	const gone = "http://w3"
	r.Remove(gone)
	moved := 0
	for _, k := range ks {
		now := r.Lookup(k)
		if now == gone {
			t.Fatalf("key %q still routes to removed member", k)
		}
		if before[k] != gone && now != before[k] {
			t.Errorf("key %q moved %s -> %s though its shard never left", k, before[k], now)
		}
		if now != before[k] {
			moved++
		}
	}
	// Only the removed member's arcs remap: about 1/4 of keys, never more
	// than ~40% even with hash noise.
	if moved > len(ks)*4/10 {
		t.Errorf("%d/%d keys moved on single-member removal, want ~1/4", moved, len(ks))
	}

	r.Add(gone)
	for _, k := range ks {
		if got := r.Lookup(k); got != before[k] {
			t.Errorf("after rejoin, key %q routes to %s, want original %s", k, got, before[k])
		}
	}
}

// TestRingInsertionOrderIndependence: the same member set must route
// identically no matter what order members joined (or churned) in.
func TestRingInsertionOrderIndependence(t *testing.T) {
	members := []string{"http://w1", "http://w2", "http://w3", "http://w4", "http://w5"}
	a := NewRing(64)
	for _, m := range members {
		a.Add(m)
	}
	b := NewRing(64)
	for i := len(members) - 1; i >= 0; i-- {
		b.Add(members[i])
	}
	// c reaches the same membership through churn.
	c := NewRing(64)
	c.Add("http://w5")
	c.Add("http://w2")
	c.Add("http://w9")
	c.Add("http://w1")
	c.Remove("http://w9")
	c.Add("http://w3")
	c.Add("http://w4")
	for _, k := range keys(5000) {
		if a.Lookup(k) != b.Lookup(k) || a.Lookup(k) != c.Lookup(k) {
			t.Fatalf("key %q routes differently across identical member sets: %s / %s / %s",
				k, a.Lookup(k), b.Lookup(k), c.Lookup(k))
		}
	}
}

// TestRingLookupN: the preference list is distinct, starts at the owner,
// and is capped by membership.
func TestRingLookupN(t *testing.T) {
	r := NewRing(32)
	for _, m := range []string{"a", "b", "c"} {
		r.Add(m)
	}
	for _, k := range keys(200) {
		got := r.LookupN(k, 3)
		if len(got) != 3 {
			t.Fatalf("LookupN(%q, 3) = %v, want 3 distinct members", k, got)
		}
		if got[0] != r.Lookup(k) {
			t.Fatalf("LookupN first = %s, Lookup = %s", got[0], r.Lookup(k))
		}
		seen := map[string]bool{}
		for _, m := range got {
			if seen[m] {
				t.Fatalf("LookupN(%q) repeats %s: %v", k, m, got)
			}
			seen[m] = true
		}
	}
	if got := r.LookupN("x", 10); len(got) != 3 {
		t.Errorf("LookupN capped = %v, want all 3 members", got)
	}
	if got := NewRing(8).LookupN("x", 2); got != nil {
		t.Errorf("empty ring LookupN = %v, want nil", got)
	}
}

// TestRingConcurrentMembership: lookups racing with membership churn
// (run under -race) never return an empty owner while members exist, and
// routing is deterministic once churn settles.
func TestRingConcurrentMembership(t *testing.T) {
	r := NewRing(32)
	stable := []string{"http://w1", "http://w2"}
	for _, m := range stable {
		r.Add(m)
	}
	churn := []string{"http://w3", "http://w4", "http://w5"}

	var lookups, churners sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		lookups.Add(1)
		go func(i int) {
			defer lookups.Done()
			ks := keys(500)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, k := range ks {
					if r.Lookup(k) == "" {
						t.Error("Lookup returned empty owner on a non-empty ring")
						return
					}
				}
			}
		}(i)
	}
	for i := 0; i < 2; i++ {
		churners.Add(1)
		go func(i int) {
			defer churners.Done()
			for round := 0; round < 50; round++ {
				m := churn[(round+i)%len(churn)]
				r.Add(m)
				r.Remove(m)
			}
		}(i)
	}
	churners.Wait()
	close(stop)
	lookups.Wait()

	// Churn settled with churn members removed: routing must match a
	// fresh ring of the stable set.
	fresh := NewRing(32)
	for _, m := range stable {
		fresh.Add(m)
	}
	for _, k := range keys(2000) {
		if got, want := r.Lookup(k), fresh.Lookup(k); got != want {
			t.Fatalf("post-churn routing diverged for %q: %s != %s", k, got, want)
		}
	}
}
