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
//	admission    → 400 / 429 + Retry-After (Admit: X-Tenant name, token bucket per tenant)
//	body cap     → 413                 (ReadBody)
//	parse/limits → 400                 (shape, sizes, unknown devices)
//	gauntlet     → 422                 (kir.Check / uniform barriers / bounded loops)
//	execution    → 200, or 422 "watchdog" when the step budget killed it
//
// Every response from the parse rung on, and the quota refusal, carries a
// "classification" field — ok | gauntlet-reject | watchdog | quota; the
// other refusals are typed {error, code} replies. Either way adversarial
// clients (and kfuzz -attack) can assert that no submission ever produces
// an unclassified outcome.

import (
	"context"
	"fmt"
	"net/http"

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

func (s *Server) handleKernels(w http.ResponseWriter, r *http.Request) {
	// Handler has already run Admit: the tenant is valid and in quota.
	tenant := TenantOf(r)
	body, ok := ReadBody(w, r, s.limits.MaxBody)
	if !ok {
		return
	}

	// Parse + resource limits.
	sub, err := submit.Parse(body, s.limits)
	if err != nil {
		s.rejectKernel(w, http.StatusBadRequest, submit.Code(err), err)
		return
	}

	// The static gauntlet.
	if err := submit.Gauntlet(sub.Kernel); err != nil {
		s.rejectKernel(w, http.StatusUnprocessableEntity, submit.Code(err), err)
		return
	}

	// Compile + execute on the worker pool, deduplicated and
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
		WriteError(w, http.StatusInternalServerError, codeInternal, err)
		return
	}
	rep, ok := v.(*submit.Report)
	if !ok {
		WriteError(w, http.StatusInternalServerError, codeInternal,
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
	WriteJSON(w, status, resp)
}

// rejectKernel writes a classified rejection (parse or gauntlet) in the
// kernelResponse shape.
func (s *Server) rejectKernel(w http.ResponseWriter, status int, code string, err error) {
	s.gauntletRejects.Add(1)
	WriteJSON(w, status, kernelResponse{
		Classification: ClassGauntletReject,
		Code:           code,
		Error:          err.Error(),
	})
}
