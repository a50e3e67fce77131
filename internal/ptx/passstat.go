package ptx

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// PassStat records what one back-end pass did to one kernel: the
// instruction and live-register counts on both sides of the pass plus the
// pass-specific work counters. The compiler pipeline attaches one entry
// per executed pass to Kernel.PassStats, in execution order, so any layer
// holding a compiled kernel (the scheduler, the HTTP service, cmd/paper)
// can report per-pass deltas without recompiling.
type PassStat struct {
	Pass         string `json:"pass"`
	InstrsBefore int    `json:"instrs_before"`
	InstrsAfter  int    `json:"instrs_after"`
	RegsBefore   int    `json:"regs_before"` // distinct registers referenced
	RegsAfter    int    `json:"regs_after"`

	// Work counters; a pass fills only the ones that describe it.
	Removed   int `json:"removed,omitempty"`   // instructions deleted
	Rewritten int `json:"rewritten,omitempty"` // operands forwarded / rewritten
	Fused     int `json:"fused,omitempty"`     // instruction pairs combined
}

// Changed reports whether the pass altered the kernel at all.
func (s PassStat) Changed() bool {
	return s.InstrsBefore != s.InstrsAfter || s.RegsBefore != s.RegsAfter ||
		s.Removed != 0 || s.Rewritten != 0 || s.Fused != 0
}

// String renders one pass-stat line.
func (s PassStat) String() string {
	return fmt.Sprintf("%-12s instrs %d->%d regs %d->%d removed=%d rewritten=%d fused=%d",
		s.Pass, s.InstrsBefore, s.InstrsAfter, s.RegsBefore, s.RegsAfter,
		s.Removed, s.Rewritten, s.Fused)
}

// Remark is one structured compiler observation: "fully unrolled loop i by
// 8", "CSE evicted r12", "spill inserted for unroll copy 3". Phase is
// "frontend" for code-generation remarks or the back-end pass name.
//
// Count is how many times the observation fired while compiling the
// kernel. The compiler keeps one Remark per distinct (Phase, Message), in
// first-seen order, so a remark that fires once per unrolled trip or per
// evicted register ("CSE evicted rN under register pressure") is one entry
// with a count, not a thousand entries. Expanding the counts gives back the
// multiset of observations; only the interleaving of repeats is not kept.
// A zero Count, as in a Remark built by hand or decoded from JSON without
// a "count", means once.
type Remark struct {
	Phase   string `json:"phase"`
	Message string `json:"message"`
	Count   int    `json:"count,omitempty"`
}

// String renders the remark as "phase: message".
func (r Remark) String() string { return r.Phase + ": " + r.Message }

// MarshalJSON encodes a remark that fired once as {"phase","message"} and
// adds "count" only to one that repeated.
func (r Remark) MarshalJSON() ([]byte, error) {
	type plain Remark
	if r.Count <= 1 {
		r.Count = 0
	}
	return json.Marshal(plain(r))
}

// RemarkTotal returns how many times the remarks in rs fired in all: the
// sum of their counts, a zero Count counting as once.
func RemarkTotal(rs []Remark) int {
	n := 0
	for _, r := range rs {
		n += max(r.Count, 1)
	}
	return n
}

// UsedRegs counts the distinct registers the kernel's instructions
// reference (destinations, sources and guard predicates). Passes do not
// renumber registers, so this — not NumRegs, which is the allocator's
// high-water mark — is the quantity that shrinks when dead code goes away.
func (k *Kernel) UsedRegs() int {
	seen := make([]bool, max(k.NumRegs, 0))
	n := 0
	mark := func(r Reg) {
		if r < 0 { // NoReg
			return
		}
		if int(r) >= len(seen) { // a hand-built kernel that understates NumRegs
			seen = append(seen, make([]bool, int(r)+1-len(seen))...)
		}
		if !seen[r] {
			seen[r] = true
			n++
		}
	}
	for i := range k.Instrs {
		in := &k.Instrs[i]
		mark(in.Dst)
		mark(in.GuardPred)
		for j := range in.Src {
			if s := &in.Src[j]; !s.IsImm && !s.IsSpec {
				mark(s.Reg)
			}
		}
	}
	return n
}

// DiffTable renders the instruction-mix rows on which two censuses differ,
// one "<label>  before -> after  (delta)" line per changed row, sorted by
// class then label. Identical mixes render as a single "(no change)" line.
func DiffTable(before, after *Stats) string {
	keys := make(map[OpKey]bool)
	for k := range before.ByOp {
		keys[k] = true
	}
	for k := range after.ByOp {
		keys[k] = true
	}
	var changed []OpKey
	for k := range keys {
		if before.ByOp[k] != after.ByOp[k] {
			changed = append(changed, k)
		}
	}
	if len(changed) == 0 {
		return "  (no change)\n"
	}
	sort.Slice(changed, func(i, j int) bool {
		ci, cj := ClassOf(changed[i].Op), ClassOf(changed[j].Op)
		if ci != cj {
			return ci < cj
		}
		return changed[i].String() < changed[j].String()
	})
	var b strings.Builder
	for _, k := range changed {
		l, r := before.ByOp[k], after.ByOp[k]
		fmt.Fprintf(&b, "  %-14s %5d -> %-5d (%+d)\n", k.String(), l, r, r-l)
	}
	fmt.Fprintf(&b, "  %-14s %5d -> %-5d (%+d)\n", "TOTAL", before.Total, after.Total, after.Total-before.Total)
	return b.String()
}
