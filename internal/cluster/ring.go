// Package cluster is the multi-node serving layer over gpucmpd: a
// coordinator process owns admission control (per-tenant quotas, load
// shedding) and routes jobs by their sched content key over a
// consistent-hash ring to N worker gpucmpd processes, with per-shard
// circuit breakers, transparent failover, and request hedging against
// slow shards. Because routing is by content key, each key lands on one
// shard, whose local scheduler deduplicates and caches it — route-then-
// dedup gives cross-node singleflight without any shared state between
// workers.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// virtualNodes is how many points each member contributes to the
// ring. More virtual nodes flatten the key distribution (the per-shard
// load imbalance shrinks roughly with 1/sqrt(vnodes)) at the cost of a
// larger sorted array; 128 keeps worst-case imbalance under ~15% for
// small fleets while lookups stay a cheap binary search.
const virtualNodes = 128

// Ring is a consistent-hash ring with virtual nodes. Keys map to the
// first virtual node clockwise from the key's hash; when a member joins
// or leaves, only the keys in the arcs it gains or loses move — about
// K/N of them — while every other key keeps its shard, which is what
// keeps worker-local caches warm across membership changes.
//
// Ring is safe for concurrent use. Lookups are deterministic: two rings
// holding the same member set route every key identically, regardless of
// the order the members were added in.
type Ring struct {
	vnodes int

	mu      sync.RWMutex
	hashes  []uint64          // sorted virtual-node positions
	owner   map[uint64]string // position -> member
	members map[string]bool
}

// NewRing builds an empty ring. vnodes <= 0 selects virtualNodes.
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = virtualNodes
	}
	return &Ring{
		vnodes:  vnodes,
		owner:   make(map[uint64]string),
		members: make(map[string]bool),
	}
}

// hash64 is the ring's position function: fnv64a mixed through a
// splitmix64 finaliser, matching the stateless-hash idiom the fault
// injector and workload generators use.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Add inserts a member (idempotent). Positions that collide with an
// existing member's virtual node resolve to the lexicographically
// smaller member name, so the outcome is independent of insertion order.
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[member] {
		return
	}
	r.members[member] = true
	for i := 0; i < r.vnodes; i++ {
		p := hash64(fmt.Sprintf("%s#%d", member, i))
		if cur, ok := r.owner[p]; ok {
			if member >= cur {
				continue
			}
		} else {
			r.hashes = append(r.hashes, p)
		}
		r.owner[p] = member
	}
	sort.Slice(r.hashes, func(i, j int) bool { return r.hashes[i] < r.hashes[j] })
}

// Remove deletes a member (idempotent). The removed member's arcs fall
// to their clockwise successors; every other key keeps its shard.
func (r *Ring) Remove(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.members[member] {
		return
	}
	delete(r.members, member)
	// Rebuild the position set from the surviving members: collision
	// slots the removed member shadowed fall back to their other owner.
	r.hashes = r.hashes[:0]
	for p := range r.owner {
		delete(r.owner, p)
	}
	for m := range r.members {
		for i := 0; i < r.vnodes; i++ {
			p := hash64(fmt.Sprintf("%s#%d", m, i))
			if cur, ok := r.owner[p]; ok && m >= cur {
				continue
			} else if !ok {
				r.hashes = append(r.hashes, p)
			}
			r.owner[p] = m
		}
	}
	sort.Slice(r.hashes, func(i, j int) bool { return r.hashes[i] < r.hashes[j] })
}

// Contains reports whether member is on the ring.
func (r *Ring) Contains(member string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.members[member]
}

// Members returns the current member set, sorted.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Lookup returns the member owning key, or "" when the ring is empty.
func (r *Ring) Lookup(key string) string {
	if owners := r.LookupN(key, 1); len(owners) > 0 {
		return owners[0]
	}
	return ""
}

// LookupN returns up to n distinct members in clockwise preference order
// from the key's position: the first is the key's owner, the rest are
// the failover/hedge targets. The order is deterministic per key and
// stable under membership of other arcs.
func (r *Ring) LookupN(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.hashes) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	pos := hash64(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= pos })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for walked := 0; walked < len(r.hashes) && len(out) < n; walked++ {
		m := r.owner[r.hashes[(i+walked)%len(r.hashes)]]
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}
