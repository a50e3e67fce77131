package pattern

// The reference evaluator. Eval is schedule-aware: it replays the exact
// combination order the lowered kernels perform (group tiling and tree
// rounds for reduce, the Blelloch sweeps for scan, k-ascending
// accumulation for matmul), evaluating every scalar operation through the
// same kir.EvalExpr interpreter the reference executor uses. That makes
// Eval(p, s) the bitwise ground truth for Lower(p, s) on any device:
// schedules that only reorganise work (fusion, coarsening, tiling,
// unrolling, coefficient placement) cannot change its answer, and
// schedules that reassociate floats (tree vs sequential reduction, block
// size changes in reduce/scan) change it in lockstep with the kernels.

import (
	"fmt"
	"math"
)

// EvalInputs carries concrete input data for an evaluation: one word slice
// per program input. OutInit, when non-nil, seeds the output buffer before
// the program writes it (stencil borders pass through it).
type EvalInputs struct {
	Bufs    map[string][]uint32
	OutInit []uint32
}

// evalNode computes one element of an elementwise dataflow graph.
func evalNode(n *Node, i int, bufs map[string][]uint32) uint32 {
	if n.Input != "" {
		return bufs[n.Input][i]
	}
	args := make([]uint32, len(n.Args))
	for ai, a := range n.Args {
		args[ai] = evalNode(a, i, bufs)
	}
	return n.Fn.Eval(args...)
}

// f32 arithmetic helpers that round every operation to float32 through an
// explicit bit conversion, exactly as kir.EvalExpr does (no fused
// multiply-add).
func fmul(x, y uint32) uint32 {
	return math.Float32bits(math.Float32frombits(x) * math.Float32frombits(y))
}
func fadd(x, y uint32) uint32 {
	return math.Float32bits(math.Float32frombits(x) + math.Float32frombits(y))
}

// Eval runs the program under the schedule on the host and returns the
// output buffer's words (the per-group partials for reduce).
func Eval(p Program, s Schedule, shape Shape, in EvalInputs) ([]uint32, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	for _, name := range p.Inputs() {
		need := shape.N
		if p.Kind() == KindStencil2D {
			need = shape.W * shape.H
		}
		if p.Kind() == KindMatMul {
			need = shape.N * shape.N
			if name == "A" && shape.H > 0 {
				need = shape.H * shape.N
			}
		}
		if len(in.Bufs[name]) < need {
			return nil, fmt.Errorf("pattern: eval %s: input %q has %d words, need %d",
				p.ProgName(), name, len(in.Bufs[name]), need)
		}
	}
	switch p := p.(type) {
	case *MapProg:
		out := make([]uint32, shape.N)
		for i := range out {
			out[i] = evalNode(p.Root, i, in.Bufs)
		}
		return out, nil

	case *ReduceProg:
		B := s.BlockX
		if !isPow2(B) || B < 2 {
			return nil, fmt.Errorf("pattern: eval %s: bad block %d", p.Name, B)
		}
		n := shape.N
		groups := ceilDiv(n, B)
		out := make([]uint32, groups)
		tile := make([]uint32, B)
		for g := 0; g < groups; g++ {
			for t := 0; t < B; t++ {
				if i := g*B + t; i < n {
					tile[t] = evalNode(p.Root, i, in.Bufs)
				} else {
					tile[t] = p.Identity
				}
			}
			if s.TreeReduce {
				for stride := B / 2; stride >= 1; stride /= 2 {
					for t := 0; t < stride; t++ {
						tile[t] = p.Combine.Eval(tile[t], tile[t+stride])
					}
				}
				out[g] = tile[0]
			} else {
				acc := tile[0]
				for t := 1; t < B; t++ {
					acc = p.Combine.Eval(acc, tile[t])
				}
				out[g] = acc
			}
		}
		return out, nil

	case *ScanProg:
		B := s.BlockX
		if !isPow2(B) || B < 2 {
			return nil, fmt.Errorf("pattern: eval %s: bad block %d", p.Name, B)
		}
		n := shape.N
		if n%B != 0 {
			return nil, fmt.Errorf("pattern: eval %s: need N %% block == 0 (n=%d, block=%d)", p.Name, n, B)
		}
		groups := n / B
		out := make([]uint32, n)
		sums := make([]uint32, groups)
		tmp := make([]uint32, B)
		for g := 0; g < groups; g++ {
			copy(tmp, in.Bufs[p.Input][g*B:(g+1)*B])
			// Upsweep.
			for off := 1; off < B; off *= 2 {
				dd := B / (2 * off)
				for t := 0; t < dd; t++ {
					ai := off*(2*t+1) - 1
					bi := off*(2*t+2) - 1
					tmp[bi] = p.Combine.Eval(tmp[bi], tmp[ai])
				}
			}
			sums[g] = tmp[B-1]
			tmp[B-1] = p.Identity
			// Downsweep.
			for dd := 1; dd < B; dd *= 2 {
				off := B / (2 * dd)
				for t := 0; t < dd; t++ {
					ai := off*(2*t+1) - 1
					bi := off*(2*t+2) - 1
					v := tmp[ai]
					tmp[ai] = tmp[bi]
					tmp[bi] = p.Combine.Eval(tmp[bi], v)
				}
			}
			copy(out[g*B:(g+1)*B], tmp)
		}
		acc := p.Identity
		for i := range sums {
			v := sums[i]
			sums[i] = acc
			acc = p.Combine.Eval(acc, v)
		}
		for g := 0; g < groups; g++ {
			for t := 0; t < B; t++ {
				out[g*B+t] = p.Combine.Eval(out[g*B+t], sums[g])
			}
		}
		return out, nil

	case *Stencil2DProg:
		w, h := shape.W, shape.H
		out := make([]uint32, w*h)
		if in.OutInit != nil {
			if len(in.OutInit) != w*h {
				return nil, fmt.Errorf("pattern: eval %s: out init has %d words, need %d", p.Name, len(in.OutInit), w*h)
			}
			copy(out, in.OutInit)
		}
		r := stencilRadius(p.Taps)
		img := in.Bufs[p.Input]
		var coeffBits []uint32
		if len(p.Coeffs) > 0 {
			coeffBits = make([]uint32, len(p.Coeffs))
			for i, c := range p.Coeffs {
				coeffBits[i] = math.Float32bits(c)
			}
		}
		args := make([]uint32, 0, len(p.Fn.Params))
		for y := r; y < h-r; y++ {
			for x := r; x < w-r; x++ {
				args = args[:0]
				for _, t := range p.Taps {
					args = append(args, img[(y+t.DY)*w+(x+t.DX)])
				}
				args = append(args, coeffBits...)
				out[y*w+x] = p.Fn.Eval(args...)
			}
		}
		return out, nil

	case *MatMulProg:
		n, rows := shape.N, shape.H
		if rows == 0 {
			rows = n
		}
		a, bm := in.Bufs["A"], in.Bufs["B"]
		out := make([]uint32, rows*n)
		for row := 0; row < rows; row++ {
			for col := 0; col < n; col++ {
				acc := math.Float32bits(0)
				for k := 0; k < n; k++ {
					acc = fadd(acc, fmul(a[row*n+k], bm[k*n+col]))
				}
				out[row*n+col] = acc
			}
		}
		return out, nil

	default:
		return nil, fmt.Errorf("pattern: eval: unknown program type %T", p)
	}
}
