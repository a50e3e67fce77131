// Package submit implements the untrusted kernel-submission pipeline
// behind POST /kernels: parse a client-supplied KIR program (the same JSON
// encoding the fuzz corpus uses — any corpus file can be POSTed
// unchanged), enforce resource limits, run the static gauntlet, and
// execute the kernel on the modelled devices under a hard watchdog step
// budget.
//
// The package deliberately imports neither internal/fuzz (the fuzzer is a
// client of this API, not a dependency) nor the compile cache: untrusted
// kernels are compiled with plain compiler.Compile so a hostile client
// cannot grow the process-wide cache without bound.
//
// Threat model (DESIGN.md §8): the client controls the entire request
// body. Nothing in it may crash the process, hang a worker, exhaust
// memory, or read another tenant's results. Every rejection is typed —
// *Reject for shape/limit violations, kir.CheckError for gauntlet
// failures — so the server can map failures to stable machine codes.
package submit

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/compiler"
	"gpucmp/internal/kir"
	"gpucmp/internal/pattern"
	"gpucmp/internal/ptx"
	"gpucmp/internal/sim"
)

// Limits bounds what one submission may ask of the service. Zero values
// are not valid; use DefaultLimits as the base.
type Limits struct {
	MaxBody       int64  // request body bytes (enforced by the server)
	MaxGrid       int    // work groups
	MaxBlock      int    // threads per work group
	MaxThreads    int    // grid * block
	MaxBufWords   int    // words in any one buffer argument
	MaxTotalWords int    // words across all buffer arguments
	MaxArrayWords int    // elements in any one shared/local array
	MaxNodes      int    // statements + expressions in the kernel tree
	MaxOutWords   int    // output words echoed in the report
	MaxDiffLines  int    // PTX diff lines echoed in the report
	StepBudget    uint64 // watchdog: warp instructions per work group
}

// DefaultLimits are sized so every legitimate corpus program fits with
// room to spare while a hostile one cannot tie up a worker for more than
// a few milliseconds.
func DefaultLimits() Limits {
	return Limits{
		MaxBody:       1 << 20, // 1 MiB
		MaxGrid:       64,
		MaxBlock:      256,
		MaxThreads:    8192,
		MaxBufWords:   1 << 14, // 64 KiB per buffer
		MaxTotalWords: 1 << 16,
		MaxArrayWords: 1 << 12,
		MaxNodes:      4096,
		MaxOutWords:   256,
		MaxDiffLines:  200,
		StepBudget:    1 << 20,
	}
}

// Reject is a typed refusal of a submission before any kernel code runs:
// malformed JSON, impossible shapes, limit violations, unknown devices.
// Code is a stable machine-readable string (API contract: never change a
// code, only add new ones).
type Reject struct {
	Code string
	Msg  string
	Err  error // optional cause
}

func (r *Reject) Error() string {
	if r.Err != nil {
		return fmt.Sprintf("submit: %s: %v", r.Msg, r.Err)
	}
	return "submit: " + r.Msg
}

func (r *Reject) Unwrap() error { return r.Err }

func rejectf(code, format string, args ...any) error {
	return &Reject{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// Reject codes.
const (
	CodeBadJSON       = "bad-json"       // body is not the expected JSON shape
	CodeBadShape      = "bad-shape"      // launch shape / buffers inconsistent
	CodeTooLarge      = "too-large"      // a Limits bound exceeded
	CodeUnknownDevice = "unknown-device" // devices lists a name arch doesn't know
	CodeCompileFailed = "compile-failed" // front end rejected a checked kernel
)

// Code maps any error from this package (or the kir gauntlet) to its
// stable machine code, or "" for unclassified internal errors.
func Code(err error) string {
	var r *Reject
	if errors.As(err, &r) {
		return r.Code
	}
	return kir.ErrCode(err)
}

// Submission is a parsed, limit-checked request, ready for the gauntlet.
type Submission struct {
	Kernel  *kir.Kernel
	Grid    int
	Block   int
	Out     string
	Buffers map[string][]uint32
	Scalars map[string]uint32
	Devices []*arch.Device // resolved, in request order; all devices if unset

	plan *pattern.Lowered // the launch as a one-launch plan, built by Parse
	in   pattern.EvalInputs
}

// request is the wire shape. It is a superset of the fuzz corpus format:
// unknown fields (seed, source) are tolerated so corpus files replay
// unchanged.
type request struct {
	Grid    int                 `json:"grid"`
	Block   int                 `json:"block"`
	Out     string              `json:"out"`
	Scalars map[string]uint32   `json:"scalars"`
	Buffers map[string][]uint32 `json:"buffers"`
	Kernel  kir.KernelJSON      `json:"kernel"`
	Devices []string            `json:"devices"`
}

// Parse decodes and limit-checks a request body. It does not type-check
// the kernel — that is the gauntlet's job — but it does bound everything
// that could cost memory or time before the gauntlet runs: tree size,
// launch shape, buffer volume, array extents.
func Parse(body []byte, lim Limits) (*Submission, error) {
	var req request
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, &Reject{Code: CodeBadJSON, Msg: "request decode failed", Err: err}
	}
	k, err := kir.DecodeKernelJSON(&req.Kernel)
	if err != nil {
		return nil, &Reject{Code: CodeBadJSON, Msg: "kernel decode failed", Err: err}
	}
	if n := kir.CountNodes(k.Body); n > lim.MaxNodes {
		return nil, rejectf(CodeTooLarge, "kernel has %d nodes, limit %d", n, lim.MaxNodes)
	}
	for _, arrs := range [][]kir.Array{k.SharedArrays, k.LocalArrays} {
		for _, a := range arrs {
			if a.Count < 1 || a.Count > lim.MaxArrayWords {
				return nil, rejectf(CodeTooLarge,
					"array %q has %d elements, limit %d", a.Name, a.Count, lim.MaxArrayWords)
			}
		}
	}
	if req.Grid < 1 || req.Grid > lim.MaxGrid {
		return nil, rejectf(CodeBadShape, "grid %d out of range [1, %d]", req.Grid, lim.MaxGrid)
	}
	if req.Block < 1 || req.Block > lim.MaxBlock {
		return nil, rejectf(CodeBadShape, "block %d out of range [1, %d]", req.Block, lim.MaxBlock)
	}
	if req.Grid*req.Block > lim.MaxThreads {
		return nil, rejectf(CodeTooLarge,
			"launch of %d threads, limit %d", req.Grid*req.Block, lim.MaxThreads)
	}
	total := 0
	for name, data := range req.Buffers {
		if len(data) > lim.MaxBufWords {
			return nil, rejectf(CodeTooLarge,
				"buffer %q has %d words, limit %d", name, len(data), lim.MaxBufWords)
		}
		total += len(data)
	}
	if total > lim.MaxTotalWords {
		return nil, rejectf(CodeTooLarge,
			"buffers total %d words, limit %d", total, lim.MaxTotalWords)
	}
	// Every buffer parameter needs backing data; extra entries are ignored.
	for _, p := range k.Params {
		if !p.Buffer {
			continue
		}
		if len(req.Buffers[p.Name]) == 0 {
			return nil, rejectf(CodeBadShape, "buffer parameter %q has no data", p.Name)
		}
	}
	plan, in, err := pattern.OneLaunch(k, req.Grid, req.Block, req.Buffers, req.Scalars, req.Out)
	if err != nil {
		return nil, &Reject{Code: CodeBadShape, Msg: "launch rejected", Err: err}
	}
	var devices []*arch.Device
	if len(req.Devices) == 0 {
		devices = arch.All()
	} else {
		seen := map[string]bool{}
		for _, name := range req.Devices {
			a := arch.ByName(name)
			if a == nil {
				return nil, rejectf(CodeUnknownDevice, "unknown device %q", name)
			}
			if !seen[a.Name] {
				seen[a.Name] = true
				devices = append(devices, a)
			}
		}
	}
	if req.Scalars == nil {
		req.Scalars = map[string]uint32{}
	}
	return &Submission{
		Kernel: k, Grid: req.Grid, Block: req.Block, Out: req.Out,
		Buffers: req.Buffers, Scalars: req.Scalars, Devices: devices,
		plan: plan, in: in,
	}, nil
}

// Gauntlet runs every static check an untrusted kernel must pass before
// it is compiled or executed. Errors are typed kir check errors.
func Gauntlet(k *kir.Kernel) error {
	if err := kir.Check(k); err != nil {
		return err
	}
	if err := kir.CheckUniformBarriers(k); err != nil {
		return err
	}
	return kir.CheckBoundedLoops(k)
}

// ContentKey is a stable identity for the submission's observable result:
// same key, same report. The caller namespaces it per tenant before using
// it as a cache key.
func (s *Submission) ContentKey() string {
	names := make([]string, len(s.Devices))
	for i, a := range s.Devices {
		names[i] = a.Name
	}
	blob, err := json.Marshal(request{
		Grid: s.Grid, Block: s.Block, Out: s.Out,
		Scalars: s.Scalars, Buffers: s.Buffers,
		Kernel:  kir.EncodeKernelJSON(s.Kernel),
		Devices: names,
	})
	if err != nil { // all field types are marshalable; this cannot happen
		panic(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:12])
}

// DeviceRun is the outcome of one toolchain x device execution.
type DeviceRun struct {
	Device    string `json:"device"`
	Toolchain string `json:"toolchain"`
	// Status: "ok" (ran to completion), "skipped" (device cannot launch
	// this shape — the paper's ABT rows), "watchdog" (step budget killed
	// it), "fault" (runtime error, e.g. an out-of-bounds access).
	Status       string   `json:"status"`
	Reason       string   `json:"reason,omitempty"`
	Out          []uint32 `json:"out,omitempty"`
	OutTruncated bool     `json:"out_truncated,omitempty"`
	OutChecksum  string   `json:"out_checksum,omitempty"` // over the full buffer
	WarpInstrs   int64    `json:"warp_instrs,omitempty"`
	LaneInstrs   int64    `json:"lane_instrs,omitempty"`
}

// Report is everything the service learned about one submission: the
// compiler story per toolchain, the execution matrix, and a line diff of
// the two personalities' generated PTX.
type Report struct {
	Kernel      string               `json:"kernel"`
	Grid        int                  `json:"grid"`
	Block       int                  `json:"block"`
	Compile     []bench.KernelReport `json:"compile"`
	Runs        []DeviceRun          `json:"runs"`
	PTXDiff     []string             `json:"ptx_diff,omitempty"`
	Watchdogged bool                 `json:"watchdogged,omitempty"`
}

// Run compiles the submission with both personalities and executes it on
// every requested device (CUDA on NVIDIA devices only, matching the
// paper's platform matrix), each launch under lim.StepBudget. The kernel
// must already have passed Gauntlet. Run never hangs: a non-terminating
// kernel comes back as a watchdog-status DeviceRun with
// Report.Watchdogged set. The returned error is non-nil only for
// compile-time rejections (*Reject, CodeCompileFailed) — or ctx.Err()
// when the context is cancelled mid-run (every waiter abandoned the
// submission), in which case in-flight simulated devices are cancelled
// and the remaining matrix is skipped so the worker is reclaimed.
func Run(ctx context.Context, s *Submission, lim Limits) (*Report, error) {
	rep := &Report{Kernel: s.Kernel.Name, Grid: s.Grid, Block: s.Block}
	type built struct {
		tc bench.Toolchain
		pk *ptx.Kernel
	}
	var pipelines []built
	for _, tc := range []bench.Toolchain{bench.CUDA(), bench.OpenCL()} {
		pk, err := compiler.Compile(s.Kernel, tc.Personality)
		if err != nil {
			return nil, &Reject{Code: CodeCompileFailed,
				Msg: "compile with " + tc.Name + " failed", Err: err}
		}
		pipelines = append(pipelines, built{tc, pk})
		rep.Compile = append(rep.Compile, bench.ReportKernel(pk))
	}
	rep.PTXDiff = diffLines(
		pipelines[0].pk.Disassemble(), pipelines[1].pk.Disassemble(), lim.MaxDiffLines)
	for _, b := range pipelines {
		for _, a := range s.Devices {
			if !b.tc.RunsOn(a) {
				continue
			}
			if ctx != nil && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			run := executeOne(ctx, s, b.pk, a, lim)
			run.Toolchain = b.tc.Name
			run.Device = a.Name
			if run.Status == "watchdog" {
				rep.Watchdogged = true
			}
			rep.Runs = append(rep.Runs, run)
		}
	}
	return rep, nil
}

// executeOne runs the submission's plan on a fresh simulated device.
// All failure modes fold into the DeviceRun status; nothing a hostile
// kernel does at run time is an error to the caller. Cancelling ctx
// cancels the device, so a launch in progress aborts at its next warp
// checkpoint (surfacing as a watchdog status).
func executeOne(ctx context.Context, s *Submission, pk *ptx.Kernel, a *arch.Device, lim Limits) DeviceRun {
	dev, err := sim.NewDevice(a)
	if err != nil {
		return DeviceRun{Status: "skipped", Reason: err.Error()}
	}
	dev.StepBudget = lim.StepBudget
	// Sequential units give a kernel with a cross-block race one defined,
	// cacheable result; a race-free kernel gets the same bits either way.
	dev.Parallel = false
	if ctx != nil {
		defer context.AfterFunc(ctx, dev.Cancel)()
	}
	out, traces, err := pattern.RunDevice(s.plan, s.in, dev, []*ptx.Kernel{pk})
	switch {
	case err == nil:
	case errors.Is(err, sim.ErrWatchdog):
		return DeviceRun{Status: "watchdog", Reason: err.Error()}
	case errors.Is(err, sim.ErrOutOfResources),
		errors.Is(err, sim.ErrInvalidWorkGroupSize),
		errors.Is(err, sim.ErrInvalidConfig):
		return DeviceRun{Status: "skipped", Reason: err.Error()}
	default:
		return DeviceRun{Status: "fault", Reason: err.Error()}
	}
	run := DeviceRun{
		Status:      "ok",
		OutChecksum: checksumWords(out),
		WarpInstrs:  traces[0].Dyn.Total,
		LaneInstrs:  traces[0].LaneInstrs,
	}
	if len(out) > lim.MaxOutWords {
		run.Out = out[:lim.MaxOutWords]
		run.OutTruncated = true
	} else {
		run.Out = out
	}
	return run
}

func checksumWords(words []uint32) string {
	h := sha256.New()
	buf := make([]byte, 4)
	for _, w := range words {
		buf[0] = byte(w)
		buf[1] = byte(w >> 8)
		buf[2] = byte(w >> 16)
		buf[3] = byte(w >> 24)
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
