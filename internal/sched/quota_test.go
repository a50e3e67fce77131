package sched

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gpucmp/internal/clock"
)

// TestTenantFloodIsBounded: a flood of fresh tenant names leaves exactly
// maxTenantCaches tenant caches and maxTenants quota buckets.
func TestTenantFloodIsBounded(t *testing.T) {
	s := New(Options{Workers: 1, Quota: QuotaConfig{Rate: 1}, Clock: clock.NewFake(time.Unix(0, 0))})
	t.Cleanup(s.Close)
	const flood = 1100
	for i := 0; i < flood; i++ {
		tenant := fmt.Sprintf("flood-%d", i)
		if ok, _ := s.Quotas().Allow(tenant); !ok {
			t.Fatalf("%s: first request throttled", tenant)
		}
		if _, _, err := s.DoTask(context.Background(), tenant, "flood", "k", func(context.Context) (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	caches := len(s.tenants)
	s.mu.Unlock()
	s.quotas.mu.Lock()
	buckets := len(s.quotas.buckets)
	s.quotas.mu.Unlock()
	if caches != maxTenantCaches || buckets != maxTenants {
		t.Errorf("after %d tenants: %d tenant caches and %d quota buckets, want %d and %d",
			flood, caches, buckets, maxTenantCaches, maxTenants)
	}
}

// TestThrottledBucketSurvivesFlood: the bucket map evicts the fullest
// bucket, so a tenant that has spent its burst cannot get a fresh one by
// pushing its own out with new names.
func TestThrottledBucketSurvivesFlood(t *testing.T) {
	q := NewTenantQuotas(QuotaConfig{Rate: 1, Burst: 2}, clock.NewFake(time.Unix(0, 0)))
	for i := 0; i < 2; i++ {
		if ok, _ := q.Allow("mallory"); !ok {
			t.Fatalf("request %d within the burst throttled", i+1)
		}
	}
	if ok, _ := q.Allow("mallory"); ok {
		t.Fatal("a request past the burst was allowed")
	}
	for i := 0; i < 2*maxTenants; i++ {
		q.Allow(fmt.Sprintf("sybil-%d", i))
	}
	if ok, _ := q.Allow("mallory"); ok {
		t.Error("after the flood the throttled tenant was allowed: its bucket was evicted")
	}
}
