package server

// POST /kernels: the untrusted kernel-submission endpoint — a
// compiler-explorer-style playground over the modelled CUDA/OpenCL
// toolchains. The request body is the fuzz-corpus JSON program format
// (internal/submit.Parse); the reply carries both personalities' compile
// reports, the per-device execution matrix run under a watchdog step
// budget, and a PTX diff.
//
// Defense ladder, in order (each rung runs only if the previous passed):
//
//	quota        → 429 + Retry-After   (token bucket per X-Tenant)
//	body cap     → 413                 (http.MaxBytesReader)
//	parse/limits → 400                 (shape, sizes, unknown devices)
//	gauntlet     → 422                 (kir.Check / uniform barriers / bounded loops)
//	execution    → 200, or 422 "watchdog" when the step budget killed it
//
// Every response, success or failure, carries a "classification" field —
// ok | gauntlet-reject | watchdog | quota — so adversarial clients (and
// kfuzz -attack) can assert that no submission ever produces an
// unclassified outcome.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"strconv"

	"gpucmp/internal/sched"
	"gpucmp/internal/submit"
)

// Classifications of a /kernels response.
const (
	ClassOK             = "ok"
	ClassGauntletReject = "gauntlet-reject"
	ClassWatchdog       = "watchdog"
	ClassQuota          = "quota"
)

// kernelResponse is the POST /kernels reply, for every outcome. Error
// replies reuse the errorBody field names (error, code) so generic
// clients need only one decoder.
type kernelResponse struct {
	Classification string `json:"classification"`
	Code           string `json:"code,omitempty"`
	Error          string `json:"error,omitempty"`

	Key               string  `json:"key,omitempty"`    // content key (cache identity)
	Served            string  `json:"served,omitempty"` // miss | hit | shared
	Cached            bool    `json:"cached,omitempty"`
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`

	Report *submit.Report `json:"report,omitempty"`
}

// tenantRe validates the X-Tenant header: short, printable, no
// separators, so tenant names can appear raw in cache keys and metrics
// labels.
var tenantRe = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// DefaultTenant is used when a request carries no X-Tenant header.
const DefaultTenant = "anon"

// coexecTenant is the tenant POST /coexec runs under. No client may name
// itself so, or its submissions would evict /coexec results from that
// tenant's cache and count in its metrics rows.
const coexecTenant = "coexec"

func (s *Server) handleKernels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed,
			fmt.Errorf("POST a kernel program to /kernels"))
		return
	}
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = DefaultTenant
	}
	if !tenantRe.MatchString(tenant) {
		writeError(w, http.StatusBadRequest, codeBadTenant,
			fmt.Errorf("X-Tenant must match %s", tenantRe))
		return
	}
	if tenant == coexecTenant {
		writeError(w, http.StatusBadRequest, codeBadTenant,
			fmt.Errorf("X-Tenant %q is reserved for POST /coexec", tenant))
		return
	}

	// Rung 1: quota. Consulted before any parsing so a throttled tenant
	// cannot make the server do work.
	if ok, retry := s.sched.Quotas().Allow(tenant); !ok {
		secs := math.Ceil(retry.Seconds())
		w.Header().Set("Retry-After", strconv.Itoa(int(secs)))
		s.quotaDenials.Add(1)
		writeJSON(w, http.StatusTooManyRequests, kernelResponse{
			Classification:    ClassQuota,
			Code:              codeQuota,
			Error:             fmt.Sprintf("tenant %q is over its submission quota", tenant),
			RetryAfterSeconds: secs,
		})
		return
	}

	// Rung 2: body cap.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.limits.MaxBody))
	if err != nil {
		status, code := http.StatusBadRequest, codeBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status, code = http.StatusRequestEntityTooLarge, codeTooLarge
		}
		s.rejectKernel(w, status, code, err)
		return
	}

	// Rung 3: parse + resource limits.
	sub, err := submit.Parse(body, s.limits)
	if err != nil {
		s.rejectKernel(w, http.StatusBadRequest, submit.Code(err), err)
		return
	}

	// Rung 4: the static gauntlet.
	if err := submit.Gauntlet(sub.Kernel); err != nil {
		s.rejectKernel(w, http.StatusUnprocessableEntity, submit.Code(err), err)
		return
	}

	// Rung 5: compile + execute on the worker pool, deduplicated and
	// cached within this tenant's namespace only.
	key := sub.ContentKey()
	lim := s.limits
	v, outcome, err := s.sched.DoTask(r.Context(), tenant, "kernel-submit", key,
		func(ctx context.Context) (any, error) { return submit.Run(ctx, sub, lim) })
	if err != nil {
		if submit.Code(err) == submit.CodeCompileFailed {
			// A checked kernel the front end still refused: treat like a
			// gauntlet rejection (the gauntlet's last line of defense).
			s.rejectKernel(w, http.StatusUnprocessableEntity, submit.CodeCompileFailed, err)
			return
		}
		writeError(w, http.StatusInternalServerError, codeInternal, err)
		return
	}
	rep, ok := v.(*submit.Report)
	if !ok {
		writeError(w, http.StatusInternalServerError, codeInternal,
			fmt.Errorf("unexpected task result %T", v))
		return
	}
	resp := kernelResponse{
		Classification: ClassOK,
		Key:            key,
		Served:         outcome.String(),
		Cached:         outcome == sched.Hit,
		Report:         rep,
	}
	status := http.StatusOK
	if rep.Watchdogged {
		// The step budget killed at least one execution: the kernel does
		// not terminate (or takes unreasonably long). The report is still
		// returned — the compile story and any completed runs are valid.
		resp.Classification = ClassWatchdog
		resp.Code = "watchdog"
		status = http.StatusUnprocessableEntity
	}
	w.Header().Set("X-Cache", outcome.String())
	writeJSON(w, status, resp)
}

// rejectKernel writes a classified rejection (parse or gauntlet) in the
// kernelResponse shape.
func (s *Server) rejectKernel(w http.ResponseWriter, status int, code string, err error) {
	s.gauntletRejects.Add(1)
	writeJSON(w, status, kernelResponse{
		Classification: ClassGauntletReject,
		Code:           code,
		Error:          err.Error(),
	})
}
