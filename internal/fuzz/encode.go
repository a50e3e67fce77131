package fuzz

// JSON serialisation of fuzz programs, used for the on-disk regression
// corpus. Shrunk kernels cannot be regenerated from their seed (the
// shrinker edits the tree directly), so the corpus stores the full AST as
// a tagged union, plus the input data and launch shape. A formatted
// rendering of the kernel is embedded for human triage; it is ignored on
// decode and regenerated on encode.
//
// The kernel-tree codec itself lives in internal/kir (kir.KernelJSON):
// it is shared with the untrusted-submission API, whose request body is a
// superset of this corpus format — any corpus file can be POSTed to
// /kernels unchanged.

import (
	"encoding/json"
	"fmt"
	"strings"

	"gpucmp/internal/kir"
)

type progJSON struct {
	Seed    uint64              `json:"seed"`
	Grid    int                 `json:"grid"`
	Block   int                 `json:"block"`
	Out     string              `json:"out"`
	Scalars map[string]uint32   `json:"scalars,omitempty"`
	Buffers map[string][]uint32 `json:"buffers"`
	Kernel  kir.KernelJSON      `json:"kernel"`
	Source  []string            `json:"source,omitempty"` // informational only
}

// Encode renders the program as indented JSON.
func Encode(p *Program) ([]byte, error) {
	pj := progJSON{
		Seed: p.Seed, Grid: p.Grid, Block: p.Block, Out: p.Out,
		Scalars: p.Scalars, Buffers: p.Buffers,
		Kernel: kir.EncodeKernelJSON(p.Kernel),
		Source: strings.Split(strings.TrimRight(kir.Format(p.Kernel), "\n"), "\n"),
	}
	return json.MarshalIndent(&pj, "", " ")
}

// Decode parses a program written by Encode and type-checks the kernel.
func Decode(data []byte) (*Program, error) {
	var pj progJSON
	if err := json.Unmarshal(data, &pj); err != nil {
		return nil, fmt.Errorf("fuzz: corpus decode: %w", err)
	}
	k, err := kir.DecodeKernelJSON(&pj.Kernel)
	if err != nil {
		return nil, err
	}
	if err := kir.Check(k); err != nil {
		return nil, fmt.Errorf("fuzz: corpus kernel rejected by checker: %w", err)
	}
	p := &Program{
		Seed: pj.Seed, Kernel: k, Grid: pj.Grid, Block: pj.Block,
		Out: pj.Out, Buffers: pj.Buffers, Scalars: pj.Scalars,
	}
	if p.Scalars == nil {
		p.Scalars = map[string]uint32{}
	}
	if p.Buffers == nil {
		return nil, fmt.Errorf("fuzz: corpus program has no buffers")
	}
	if _, ok := p.Buffers[p.Out]; !ok {
		return nil, fmt.Errorf("fuzz: corpus program output buffer %q missing", p.Out)
	}
	if _, _, err := p.plan(); err != nil {
		return nil, fmt.Errorf("fuzz: corpus program: %w", err)
	}
	return p, nil
}
