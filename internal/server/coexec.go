package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strings"

	"gpucmp/internal/arch"
	"gpucmp/internal/coexec"
	"gpucmp/internal/fault"
	"gpucmp/internal/sched"
)

// decodeJSON decodes a strict, size-capped JSON body; on failure it writes
// the error reply itself and returns a non-nil error.
func decodeJSON[T any](w http.ResponseWriter, r *http.Request) (*T, error) {
	var v T
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRunBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		status, code := http.StatusBadRequest, codeBadJSON
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status, code = http.StatusRequestEntityTooLarge, codeTooLarge
		}
		writeError(w, status, code, fmt.Errorf("bad request body: %w", err))
		return nil, err
	}
	return &v, nil
}

// coexecRequest is the POST /coexec body: split one workload launch across
// several devices and return the run report. The merged output itself is
// returned as a checksum, not inline — it can be megabytes, and clients of
// this endpoint care about the schedule, not the words.
type coexecRequest struct {
	Workload        string         `json:"workload"` // vecadd | sobel | mxm
	Size            int            `json:"size"`
	Devices         []string       `json:"devices"`
	ShardsPerDevice int            `json:"shards_per_device,omitempty"`
	Kill            map[string]int `json:"kill,omitempty"` // deterministic mid-run device loss
}

// coexecResponse mirrors the /run reply: the report plus how it was served,
// with the run's degraded state lifted to the top level so clients can
// treat it uniformly with /run degradation.
type coexecResponse struct {
	Report         *coexec.Report `json:"report"`
	OutputChecksum string         `json:"output_checksum"` // fnv64a over the merged words
	Cached         bool           `json:"cached"`
	Served         string         `json:"served"`

	Degraded      bool   `json:"degraded,omitempty"`
	DegradedMode  string `json:"degraded_mode,omitempty"` // "device-lost"
	DegradedCause string `json:"degraded_cause,omitempty"`
}

// coexecRun is what the scheduler caches for one coexec key.
type coexecRun struct {
	Report   *coexec.Report
	Checksum string
}

// coexecMaxSize bounds the simulated problem so one request stays
// interactive; the figure table's coexec row (`paper coexec`) is the
// tool for whole sweeps.
const coexecMaxSize = 512

func (req *coexecRequest) validate() error {
	if _, err := coexec.Named(req.Workload, 1); err != nil {
		return err
	}
	if req.Size < 1 || req.Size > coexecMaxSize {
		return fmt.Errorf("size %d out of range [1,%d]", req.Size, coexecMaxSize)
	}
	if len(req.Devices) == 0 {
		return errors.New("at least one device required")
	}
	if len(req.Devices) > len(arch.All()) {
		return fmt.Errorf("%d devices: more than exist", len(req.Devices))
	}
	for name := range req.Kill {
		found := false
		for _, d := range req.Devices {
			if d == name {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("kill names %q, which is not in devices", name)
		}
	}
	return nil
}

// key canonicalises the request into a cache key: same split, same kill
// schedule, same answer (the simulator is deterministic).
func (req *coexecRequest) key() string {
	var kills []string
	for name, n := range req.Kill {
		kills = append(kills, fmt.Sprintf("%s=%d", name, n))
	}
	sort.Strings(kills)
	return fmt.Sprintf("coexec|%s|%d|%s|%d|%s",
		strings.ToLower(req.Workload), req.Size,
		strings.Join(req.Devices, ","), req.ShardsPerDevice, strings.Join(kills, ","))
}

func (s *Server) handleCoexec(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed,
			fmt.Errorf("POST a coexec request body to /coexec"))
		return
	}
	req, err := decodeJSON[coexecRequest](w, r)
	if err != nil {
		return // decodeJSON already replied
	}
	devices := make([]*arch.Device, len(req.Devices))
	for i, name := range req.Devices {
		a, err := arch.Resolve(name)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeUnknownDevice, err)
			return
		}
		devices[i] = a
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	wl, err := coexec.Named(req.Workload, req.Size)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}

	// One cache/dedup entry per canonical split, under the "coexec"
	// tenant. DoTask caches only successful values, so a run abandoned by
	// its client (context cancelled -> ErrAbandoned) is never cached and
	// the next request re-executes.
	v, outcome, err := s.sched.DoTask(r.Context(), coexecTenant, "coexec", req.key(),
		func(ctx context.Context) (any, error) {
			out, rep, err := coexec.Run(ctx, wl, coexec.Options{
				Devices:         devices,
				ShardsPerDevice: req.ShardsPerDevice,
				Injector:        s.coexecInjector,
				Metrics:         s.coexecMetrics,
				Kill:            req.Kill,
			})
			if err != nil {
				return nil, err
			}
			h := fnv.New64a()
			var buf [4]byte
			for _, word := range out {
				binary.LittleEndian.PutUint32(buf[:], word)
				h.Write(buf[:]) //nolint:errcheck // fnv never fails
			}
			return &coexecRun{Report: rep, Checksum: fmt.Sprintf("%016x", h.Sum64())}, nil
		})
	if err != nil {
		var se *coexec.ShardError
		if errors.As(err, &se) {
			// A shard exhausted its retry budget on every device: a typed,
			// deterministic failure, not a service degradation.
			writeError(w, http.StatusInternalServerError, codeCoexecFailed, err)
			return
		}
		writeError(w, http.StatusInternalServerError, codeInternal, err)
		return
	}
	run := v.(*coexecRun)
	resp := coexecResponse{
		Report:         run.Report,
		OutputChecksum: run.Checksum,
		Cached:         outcome == sched.Hit,
		Served:         outcome.String(),
	}
	if run.Report.Degraded {
		resp.Degraded = true
		resp.DegradedMode = "device-lost"
		resp.DegradedCause = run.Report.DegradedCause
	}
	w.Header().Set("X-Cache", outcome.String())
	writeJSON(w, http.StatusOK, resp)
}

// WithCoexecFaults installs the fault injector driving POST /coexec runs
// (nil = no injected faults) — the knob cmd/gpucmpd exposes as
// -inject-transfer-rate / -inject-device-lost-rate.
func WithCoexecFaults(in *fault.Injector) Option {
	return func(s *Server) { s.coexecInjector = in }
}
