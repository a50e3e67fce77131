package server

import (
	"context"
	"encoding/binary"
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
// with the run's degraded state (a device lost mid-run) lifted to the top
// level.
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
// schedule, same answer (coexec.Run schedules in simulated time, and every
// run draws its faults from a fresh injector on the server's one seed).
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
	body, ok := ReadBody(w, r, maxRunBody)
	if !ok {
		return
	}
	req, ok := decodeJSON[coexecRequest](w, body)
	if !ok {
		return
	}
	devices := make([]*arch.Device, len(req.Devices))
	for i, name := range req.Devices {
		a, err := arch.Resolve(name)
		if err != nil {
			WriteError(w, http.StatusBadRequest, codeUnknownDevice, err)
			return
		}
		devices[i] = a
	}
	if err := req.validate(); err != nil {
		WriteError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	wl, err := coexec.Named(req.Workload, req.Size)
	if err != nil {
		WriteError(w, http.StatusBadRequest, codeBadRequest, err)
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
				Injector:        s.coexecInjector(),
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
			WriteError(w, http.StatusInternalServerError, codeCoexecFailed, err)
			return
		}
		WriteError(w, http.StatusInternalServerError, codeInternal, err)
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
	WriteJSON(w, http.StatusOK, resp)
}

// WithCoexecFaults makes every POST /coexec run draw shard faults from a
// fresh injector on seed and sch; the degraded-reply tests serve through
// it. A fresh injector per run keeps one request's fault draws from moving
// another's. It panics on an invalid schedule, as fault.New does.
func WithCoexecFaults(seed uint64, sch fault.Schedule) Option {
	if err := sch.Validate(); err != nil {
		panic(err)
	}
	return func(s *Server) { s.coexecSeed, s.coexecFaults = seed, &sch }
}

// coexecInjector returns a fresh injector for one /coexec run, or nil when
// no faults are configured.
func (s *Server) coexecInjector() *fault.Injector {
	if s.coexecFaults == nil {
		return nil
	}
	return fault.New(s.coexecSeed, *s.coexecFaults)
}
