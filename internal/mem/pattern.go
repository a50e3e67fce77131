package mem

import "math/bits"

// Batched warp-access classification. The reference coalescing routines in
// coalesce.go dedup with an O(lanes^2) linear-set scan per access; at one
// global access per handful of warp instructions that scan dominates the
// memory-system accounting. Almost every access a real kernel issues is
// either a broadcast (every lane reads the same address) or a monotone
// sweep (addresses non-decreasing in lane order: the coalesced stride-1 /
// stride-k patterns), and for those one forward pass classifies the whole
// warp. The *Fast variants below take that single pass and fall back to
// the exact reference routine for irregular patterns, so they are
// bit-identical drop-ins: same counts, and for CoalesceListFast the same
// segment list in the same first-touch order (cache models are order-
// sensitive, so the order is part of the contract).
//
// The reference routines are deliberately left untouched: they are the
// pre-optimization baseline the simulator's equivalence gate and the
// internal/sim Interpreter benchmarks are measured against.

// dedupTable is an exact first-touch dedup for up to 64 values: a 128-slot
// open-addressed table that lives entirely on the caller's stack. At most
// 64 insertions against 128 slots keeps probe chains short, and the
// occupancy bitmap (rather than a sentinel value) makes every 32-bit value
// insertable. It is what makes the irregular-pattern path O(lanes) instead
// of the reference routines' O(lanes^2) linear-set scan, with identical
// results: the table only answers membership, so first-touch order is
// preserved.
type dedupTable struct {
	slots [128]uint32
	used  [2]uint64
}

// insert adds v and reports whether it was new.
func (t *dedupTable) insert(v uint32) bool {
	h := (v * 2654435761) >> 25 // top 7 bits: 0..127
	for {
		bit := uint64(1) << (h & 63)
		if t.used[h>>6]&bit == 0 {
			t.used[h>>6] |= bit
			t.slots[h] = v
			return true
		}
		if t.slots[h] == v {
			return false
		}
		h = (h + 1) & 127
	}
}

// CoalesceListFast is CoalesceList with a single-pass fast path for
// monotone address patterns. Output (count, contents and order of out) is
// identical to CoalesceList for every input.
func CoalesceListFast(addrs []uint32, mask uint64, segBytes uint32, out []uint32) int {
	if segBytes == 0 {
		segBytes = 64
	}
	if len(addrs) > 64 || segBytes&(segBytes-1) != 0 {
		return CoalesceList(addrs, mask, segBytes, out)
	}
	segMask := segBytes - 1 // segBytes is a power of two on every modelled device
	n := 0
	var last uint32
	for lane := 0; lane < len(addrs); lane++ {
		if mask&(1<<uint(lane)) == 0 {
			continue
		}
		s := addrs[lane] &^ segMask
		if n > 0 {
			if s == last {
				continue
			}
			if s < last {
				// Non-monotone in segment space (which implies non-monotone
				// addresses): a segment may repeat non-adjacently, which the
				// running dedup above cannot see. Redo with an exact hashed
				// first-touch dedup.
				var t dedupTable
				n = 0
				for l := 0; l < len(addrs); l++ {
					if mask&(1<<uint(l)) == 0 {
						continue
					}
					ps := addrs[l] &^ segMask
					if t.insert(ps) {
						out[n] = ps
						n++
					}
				}
				return n
			}
		}
		out[n] = s
		n++
		last = s
	}
	return n
}

// CoalesceSegmentsFast is CoalesceSegments with the same monotone fast
// path as CoalesceListFast.
func CoalesceSegmentsFast(addrs []uint32, mask uint64, segBytes uint32) int {
	if segBytes == 0 {
		segBytes = 64
	}
	if len(addrs) > 64 || segBytes&(segBytes-1) != 0 {
		return CoalesceSegments(addrs, mask, segBytes)
	}
	segShift := uint(bits.TrailingZeros32(segBytes))
	n := 0
	var last uint32
	for lane := 0; lane < len(addrs); lane++ {
		if mask&(1<<uint(lane)) == 0 {
			continue
		}
		s := addrs[lane] >> segShift
		if n > 0 {
			if s == last {
				continue
			}
			if s < last {
				var t dedupTable
				n = 0
				for l := 0; l < len(addrs); l++ {
					if mask&(1<<uint(l)) == 0 {
						continue
					}
					if t.insert(addrs[l] >> segShift) {
						n++
					}
				}
				return n
			}
		}
		n++
		last = s
	}
	return n
}

// DistinctAddrsFast is DistinctAddrs with a single-pass fast path for
// monotone (non-decreasing) address sequences; a monotone sequence can
// only repeat a value adjacently, so counting value changes is exact.
func DistinctAddrsFast(addrs []uint32, mask uint64) int {
	if len(addrs) > 64 {
		return DistinctAddrs(addrs, mask)
	}
	n := 0
	var last uint32
	for lane := 0; lane < len(addrs); lane++ {
		if mask&(1<<uint(lane)) == 0 {
			continue
		}
		a := addrs[lane]
		if n > 0 {
			if a == last {
				continue
			}
			if a < last {
				var t dedupTable
				n = 0
				for l := 0; l < len(addrs); l++ {
					if mask&(1<<uint(l)) == 0 {
						continue
					}
					if t.insert(addrs[l]) {
						n++
					}
				}
				return n
			}
		}
		n++
		last = a
	}
	return n
}

// classifyRuns collects the active addresses into buf and classifies the
// sequence in the same pass. It returns the active-lane count n and a
// prefix length p such that buf[:p] is non-decreasing and buf[i] ==
// buf[i-p] for every i in [p, n): p == n means the whole sequence is
// non-decreasing, and p == 0 flags an irregular sequence the caller must
// hand to the exact reference routine. Either way the distinct address
// set of the warp is exactly the distinct set of the non-decreasing
// prefix buf[:p].
//
// These two shapes cover essentially every shared/constant access a 2-D
// kernel issues. A warp spanning r rows of a 2-D block sees either one
// monotone sweep, or r row-offset monotone runs that chain into one
// non-decreasing sequence (row-major indexing), or r identical copies of
// the first run (a row-local index like tile[k][tx], identical for every
// row in the warp) — the periodic case.
func classifyRuns(addrs []uint32, mask uint64, buf *[64]uint32) (n, p int) {
	irregular := false
	for lane := 0; lane < len(addrs); lane++ {
		if mask&(1<<uint(lane)) == 0 {
			continue
		}
		a := addrs[lane]
		if !irregular {
			if p == 0 && n > 0 && a < buf[n-1] {
				// First descent: the only remaining exact shape is that the
				// rest repeats buf[:n] verbatim, so the period is n.
				p = n
			}
			if p > 0 && a != buf[n-p] {
				irregular = true
			}
		}
		// Keep gathering even once irregular: callers' hashed-dedup paths
		// need every active address in buf.
		buf[n] = a
		n++
	}
	if irregular {
		return n, 0
	}
	if p == 0 {
		p = n
	}
	return n, p
}

// dedupNonDecreasing removes adjacent duplicates from a non-decreasing
// slice in place and returns the distinct count — exact, because a
// non-decreasing sequence can only repeat a value adjacently.
func dedupNonDecreasing(buf []uint32) int {
	d := 0
	for i := 0; i < len(buf); i++ {
		if d == 0 || buf[i] != buf[d-1] {
			buf[d] = buf[i]
			d++
		}
	}
	return d
}

// Full-mask variants. The block-compiled segments of the threaded engine
// (internal/sim/compile.go) only execute when every lane of a full-width
// warp is active, so their memory arms classify with these specialisations:
// the same single pass as the *Fast routines but without the per-lane mask
// test and branch. Each is bit-identical to its masked sibling called with
// a mask covering all len(addrs) lanes.

// classifyRunsFull is classifyRuns for a fully-active warp.
func classifyRunsFull(addrs []uint32, buf *[64]uint32) (n, p int) {
	irregular := false
	for _, a := range addrs {
		if !irregular {
			if p == 0 && n > 0 && a < buf[n-1] {
				p = n
			}
			if p > 0 && a != buf[n-p] {
				irregular = true
			}
		}
		buf[n] = a
		n++
	}
	if irregular {
		return n, 0
	}
	if p == 0 {
		p = n
	}
	return n, p
}

// BankConflictFactorFull is BankConflictFactorFast for a fully-active warp.
func BankConflictFactorFull(addrs []uint32, banks int) int {
	if banks <= 1 {
		return 1
	}
	if len(addrs) > 64 || banks > 64 {
		return BankConflictFactor(addrs, ^uint64(0)>>(64-uint(len(addrs))), banks)
	}
	var buf [64]uint32
	n, p := classifyRunsFull(addrs, &buf)
	if n == 0 {
		return 1
	}
	var hits [64]uint8
	max := uint8(0)
	count := func(a uint32) {
		b := (a / WordBytes) % uint32(banks)
		hits[b]++
		if hits[b] > max {
			max = hits[b]
		}
	}
	if p > 0 {
		d := dedupNonDecreasing(buf[:p])
		for i := 0; i < d; i++ {
			count(buf[i])
		}
	} else {
		var t dedupTable
		for i := 0; i < n; i++ {
			if t.insert(buf[i]) {
				count(buf[i])
			}
		}
	}
	if max <= 1 {
		return 1
	}
	return int(max)
}

// CoalesceListFull is CoalesceListFast for a fully-active warp.
func CoalesceListFull(addrs []uint32, segBytes uint32, out []uint32) int {
	if segBytes == 0 {
		segBytes = 64
	}
	if len(addrs) > 64 || segBytes&(segBytes-1) != 0 {
		return CoalesceList(addrs, ^uint64(0)>>(64-uint(len(addrs))), segBytes, out)
	}
	segMask := segBytes - 1
	n := 0
	var last uint32
	for lane := 0; lane < len(addrs); lane++ {
		s := addrs[lane] &^ segMask
		if n > 0 {
			if s == last {
				continue
			}
			if s < last {
				var t dedupTable
				n = 0
				for _, a := range addrs {
					ps := a &^ segMask
					if t.insert(ps) {
						out[n] = ps
						n++
					}
				}
				return n
			}
		}
		out[n] = s
		n++
		last = s
	}
	return n
}

// DistinctAddrsFull is DistinctAddrsFast for a fully-active warp.
func DistinctAddrsFull(addrs []uint32) int {
	if len(addrs) > 64 {
		return DistinctAddrs(addrs, ^uint64(0))
	}
	n := 0
	var last uint32
	for lane := 0; lane < len(addrs); lane++ {
		a := addrs[lane]
		if n > 0 {
			if a == last {
				continue
			}
			if a < last {
				var t dedupTable
				n = 0
				for _, v := range addrs {
					if t.insert(v) {
						n++
					}
				}
				return n
			}
		}
		n++
		last = a
	}
	return n
}

// BankConflictFactorFast is BankConflictFactor with a single-pass exact
// computation for the overwhelmingly common shared-memory shapes —
// broadcasts, non-decreasing sweeps and periodic row repeats (see
// classifyRuns) — and a hashed-dedup path for irregular gathers. The
// result is identical to the reference for every input.
func BankConflictFactorFast(addrs []uint32, mask uint64, banks int) int {
	if banks <= 1 {
		return 1
	}
	if len(addrs) > 64 || banks > 64 {
		return BankConflictFactor(addrs, mask, banks)
	}
	var buf [64]uint32
	n, p := classifyRuns(addrs, mask, &buf)
	if n == 0 {
		return 1
	}
	var hits [64]uint8
	max := uint8(0)
	count := func(a uint32) {
		b := (a / WordBytes) % uint32(banks)
		hits[b]++
		if hits[b] > max {
			max = hits[b]
		}
	}
	if p > 0 {
		// buf[:p] is non-decreasing and the rest repeats it exactly, so the
		// warp's distinct address set is that of buf[:p].
		d := dedupNonDecreasing(buf[:p])
		for i := 0; i < d; i++ {
			count(buf[i])
		}
	} else {
		var t dedupTable
		for i := 0; i < n; i++ {
			if t.insert(buf[i]) {
				count(buf[i])
			}
		}
	}
	if max <= 1 {
		return 1
	}
	return int(max)
}
