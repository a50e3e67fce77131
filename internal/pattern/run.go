package pattern

// A Lowered is the one description of a launch sequence outside the two
// runtimes. Its two executors are RunLowered, on the kir host interpreter,
// and RunDevice, on a simulated device; both start from Contents and check
// each launch with launchKernel. OneLaunch makes a single launch — a fuzz
// program, a kernel submission, the gap study's FFT — such a plan.

import (
	"fmt"
	"slices"

	"gpucmp/internal/kir"
	"gpucmp/internal/ptx"
	"gpucmp/internal/sim"
)

// hostStepBudget bounds every host launch: the statements one work-item
// may execute before kir.Run kills it with kir.ErrWatchdog. Legitimate
// programs take a few thousand.
const hostStepBudget = 1 << 22

// OneLaunch is the plan of one 1-D launch of k: grid work-groups of block
// threads, buffers laid out in parameter order. bufs and scalars give each
// parameter's initial words or value by name (missing: empty, zero); out,
// the buffer read back, must be a global buffer parameter. The inputs
// returned carry bufs, with out's words as OutInit.
func OneLaunch(k *kir.Kernel, grid, block int, bufs map[string][]uint32, scalars map[string]uint32, out string) (*Lowered, EvalInputs, error) {
	if p := k.Param(out); p == nil || !p.Buffer {
		return nil, EvalInputs{}, fmt.Errorf("pattern: out %q is not a buffer parameter of %s", out, k.Name)
	} else if p.Space != kir.Global {
		return nil, EvalInputs{}, fmt.Errorf("pattern: out buffer %q is in %v space, want global", out, p.Space)
	}
	l := &Lowered{Kernels: []*kir.Kernel{k}, Out: out, Key: k.Name}
	ln := Launch{Kernel: k.Name, GridX: grid, GridY: 1, BlockX: block, BlockY: 1}
	for _, p := range k.Params {
		if !p.Buffer {
			ln.Args = append(ln.Args, ValArg(scalars[p.Name]))
			continue
		}
		bs := BufSpec{Name: p.Name, Words: len(bufs[p.Name]), Space: p.Space, Role: RoleInput}
		if p.Name == out {
			bs.Role = RoleOutput
		}
		l.Bufs = append(l.Bufs, bs)
		ln.Args = append(ln.Args, BufArg(p.Name))
	}
	l.Launches = []Launch{ln}
	return l, EvalInputs{Bufs: bufs, OutInit: bufs[out]}, nil
}

// Contents returns a fresh copy of every buffer's initial words, by name:
// inputs from in.Bufs, coefficient tables from Init, the output from
// in.OutInit when set, anything else zero.
func (l *Lowered) Contents(in EvalInputs) (map[string][]uint32, error) {
	bufs := make(map[string][]uint32, len(l.Bufs))
	for _, bs := range l.Bufs {
		words := make([]uint32, bs.Words)
		switch bs.Role {
		case RoleInput:
			src := in.Bufs[bs.Name]
			if len(src) < bs.Words {
				return nil, fmt.Errorf("pattern: run %s: input %q has %d words, need %d",
					l.Key, bs.Name, len(src), bs.Words)
			}
			copy(words, src)
		case RoleCoeff:
			copy(words, bs.Init)
		case RoleOutput:
			if in.OutInit != nil && len(in.OutInit) != bs.Words {
				return nil, fmt.Errorf("pattern: run %s: out init has %d words, need %d",
					l.Key, len(in.OutInit), bs.Words)
			}
			copy(words, in.OutInit)
		}
		bufs[bs.Name] = words
	}
	return bufs, nil
}

// launchKernel returns the index in l.Kernels of ln's kernel, once ln's
// arguments match its parameters: a buffer of l for each buffer, a value
// for each scalar.
func (l *Lowered) launchKernel(ln Launch) (int, error) {
	ki := slices.IndexFunc(l.Kernels, func(k *kir.Kernel) bool { return k.Name == ln.Kernel })
	if ki < 0 {
		return 0, fmt.Errorf("pattern: run %s: launch references unknown kernel %q", l.Key, ln.Kernel)
	}
	k := l.Kernels[ki]
	if len(ln.Args) != len(k.Params) {
		return 0, fmt.Errorf("pattern: run %s: kernel %q takes %d params, launch has %d args",
			l.Key, k.Name, len(k.Params), len(ln.Args))
	}
	for i, p := range k.Params {
		if a := ln.Args[i]; a.IsVal == p.Buffer {
			return 0, fmt.Errorf("pattern: run %s: kernel %q param %q: buffer/scalar mismatch",
				l.Key, k.Name, p.Name)
		} else if !a.IsVal && l.Buf(a.Buf) == nil {
			return 0, fmt.Errorf("pattern: run %s: launch of %q references unknown buffer %q",
				l.Key, k.Name, a.Buf)
		}
	}
	return ki, nil
}

// bind is ln's kernel and its kir.Run configuration over storage.
func (l *Lowered) bind(ln Launch, storage map[string][]uint32) (*kir.Kernel, kir.RunConfig, error) {
	ki, err := l.launchKernel(ln)
	if err != nil {
		return nil, kir.RunConfig{}, err
	}
	k := l.Kernels[ki]
	cfg := kir.RunConfig{GridX: ln.GridX, GridY: ln.GridY, BlockX: ln.BlockX, BlockY: ln.BlockY,
		Buffers: map[string][]uint32{}, Scalars: map[string]uint32{}, StepBudget: hostStepBudget}
	for i, p := range k.Params {
		if p.Buffer {
			cfg.Buffers[p.Name] = storage[ln.Args[i].Buf]
		} else {
			cfg.Scalars[p.Name] = ln.Args[i].Val
		}
	}
	return k, cfg, nil
}

// replay runs l's first n launches on the host and returns every buffer.
func (l *Lowered) replay(in EvalInputs, n int) (map[string][]uint32, error) {
	storage, err := l.Contents(in)
	if err != nil {
		return nil, err
	}
	for _, ln := range l.Launches[:n] {
		k, cfg, err := l.bind(ln, storage)
		if err == nil {
			err = kir.Run(k, cfg)
		}
		if err != nil {
			return nil, err
		}
	}
	return storage, nil
}

// RunLowered executes every launch of l on the kir host interpreter and
// returns the output buffer: the oracle between the pure evaluator and the
// compiled pipeline, and the fuzz oracle's reference. A launch's error
// comes back as kir.Run returned it; one that never terminates, as
// kir.ErrWatchdog.
func RunLowered(l *Lowered, in EvalInputs) ([]uint32, error) {
	storage, err := l.replay(in, len(l.Launches))
	if err != nil {
		return nil, err
	}
	return storage[l.Out], nil
}

// HostLaunch replays the launches before launch i on the host and returns
// launch i's kernel with its kir.Run configuration over what they left.
func (l *Lowered) HostLaunch(in EvalInputs, i int) (*kir.Kernel, kir.RunConfig, error) {
	if i < 0 || i >= len(l.Launches) {
		return nil, kir.RunConfig{}, fmt.Errorf("pattern: run %s: launch %d out of range (%d launches)",
			l.Key, i, len(l.Launches))
	}
	storage, err := l.replay(in, i)
	if err != nil {
		return nil, kir.RunConfig{}, err
	}
	return l.bind(l.Launches[i], storage)
}

// RunDevice executes every launch of l on dev, whose parallelism, step
// budget and cancellation the caller set, with kernels[i] compiled from
// l.Kernels[i], and returns the output buffer and one trace per launch.
// Buffers are staged in l.Bufs order from l.Contents(in): constant-space
// ones into the constant segment, passing their offset, the rest into
// global memory, passing their address. Errors come back typed for
// errors.Is: a buffer that does not fit is sim.ErrOutOfResources.
func RunDevice(l *Lowered, in EvalInputs, dev *sim.Device, kernels []*ptx.Kernel) ([]uint32, []*sim.Trace, error) {
	contents, err := l.Contents(in)
	if err != nil {
		return nil, nil, err
	}
	addr := make(map[string]uint32, len(l.Bufs))
	for _, bs := range l.Bufs {
		var a uint32
		if bs.Space == kir.Const {
			if a, err = dev.ConstAlloc(uint32(4 * bs.Words)); err == nil {
				err = dev.ConstWrite(a, contents[bs.Name])
			}
		} else if a, err = dev.Global.Alloc(uint32(4 * bs.Words)); err != nil {
			err = fmt.Errorf("%w: %w", err, sim.ErrOutOfResources)
		} else {
			err = dev.Global.WriteWords(a, contents[bs.Name])
		}
		if err != nil {
			return nil, nil, err
		}
		addr[bs.Name] = a
	}
	traces := make([]*sim.Trace, len(l.Launches))
	for li, ln := range l.Launches {
		ki, err := l.launchKernel(ln)
		if err != nil {
			return nil, nil, err
		}
		args := make([]uint32, len(ln.Args))
		for i, a := range ln.Args {
			args[i] = a.Val
			if !a.IsVal {
				args[i] = addr[a.Buf]
			}
		}
		traces[li], err = dev.Launch(kernels[ki],
			sim.Dim3{X: ln.GridX, Y: ln.GridY}, sim.Dim3{X: ln.BlockX, Y: ln.BlockY}, args)
		if err != nil {
			return nil, nil, err
		}
	}
	out := make([]uint32, len(contents[l.Out]))
	if err := dev.Global.ReadWords(addr[l.Out], out); err != nil {
		return nil, nil, err
	}
	return out, traces, nil
}
