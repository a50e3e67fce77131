package server

// The API, declared once. A worker (Server.Handler) and a fleet
// coordinator (cluster.Coordinator.Handler) both build their mux from
// routes through NewMux, so the two binaries answer the same paths with
// the same methods, body caps, tenant admission and typed errors. A
// worker runs each route's handler; a coordinator answers the Local
// routes itself and routes every other one over its ring by its Key.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/sched"
	"gpucmp/internal/submit"
)

// Key says how a coordinator serves a route.
type Key int

const (
	// Local routes are answered by the process itself: probes and /metrics.
	Local Key = iota
	// JobKey routes on the decoded job's sched.Job.Key(), so a job lands
	// on the worker that caches its result.
	JobKey
	// BodyKey routes on the SHA-256 of the body bytes. The coordinator
	// never decodes such a body, and two different bodies never share an
	// upstream reply.
	BodyKey
	// PathKey routes on path and query: one ring key per artifact.
	PathKey
)

// Route is one endpoint of the API.
type Route struct {
	Path    string   // an exact path, or a subtree when it ends in "/"
	Methods []string // any other method gets a typed 405 with Allow
	MaxBody int64    // the request body cap; 0 for a route without a body
	// Tenant marks a reply that depends on X-Tenant: the reserved coexec
	// tenant is refused there, a worker charges its quota only there, and
	// a coordinator never shares one tenant's upstream call with
	// another's.
	Tenant bool
	Key    Key

	serve func(*Server, http.ResponseWriter, *http.Request) // the worker's handler
}

var onlyGET, onlyPOST = []string{http.MethodGet}, []string{http.MethodPost}

// routes is the table. A worker reads a /kernels body up to its own
// submit.Limits.MaxBody (WithSubmitLimits); the cap here is the default.
var routes = []Route{
	{Path: "/healthz", Methods: onlyGET, Key: Local, serve: (*Server).handleHealthz},
	{Path: "/healthz/live", Methods: onlyGET, Key: Local, serve: (*Server).ServeLive},
	{Path: "/healthz/ready", Methods: onlyGET, Key: Local, serve: (*Server).ServeReady},
	{Path: "/metrics", Methods: onlyGET, Key: Local, serve: (*Server).handleMetrics},
	{Path: "/run", Methods: onlyPOST, MaxBody: maxRunBody, Key: JobKey, serve: (*Server).handleRun},
	{Path: "/coexec", Methods: onlyPOST, MaxBody: maxRunBody, Key: BodyKey, serve: (*Server).handleCoexec},
	{Path: "/kernels", Methods: onlyPOST, MaxBody: submit.DefaultLimits().MaxBody, Tenant: true, Key: BodyKey, serve: (*Server).handleKernels},
	{Path: "/devices", Methods: onlyGET, Key: PathKey, serve: (*Server).handleDevices},
	{Path: "/benchmarks", Methods: onlyGET, Key: PathKey, serve: (*Server).handleBenchmarks},
	{Path: "/compiler/passes", Methods: onlyGET, Key: PathKey, serve: (*Server).handleCompilerPasses},
	{Path: "/figures/", Methods: onlyGET, Key: PathKey, serve: (*Server).handleFigure},
}

// Routes returns a copy of the endpoint table.
func Routes() []Route { return slices.Clone(routes) }

// NewMux builds a binary's mux from the table: handler gives each route's
// handler. A method outside the route gets a typed 405 with Allow, and a
// path outside the table a typed 404.
func NewMux(handler func(Route) http.HandlerFunc) http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routes {
		h, allow := handler(rt), strings.Join(rt.Methods, ", ")
		mux.HandleFunc(rt.Path, func(w http.ResponseWriter, r *http.Request) {
			if !slices.Contains(rt.Methods, r.Method) {
				w.Header().Set("Allow", allow)
				WriteError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed,
					fmt.Errorf("%s %s: want %s", r.Method, r.URL.Path, allow))
				return
			}
			h(w, r)
		})
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusNotFound, codeNotFound, fmt.Errorf("no endpoint %s", r.URL.Path))
	})
	return mux
}

// Readiness is the drain switch of a binary and its two probes:
// /healthz/live answers 200 for as long as the process can serve HTTP at
// all, while /healthz/ready answers 503 while the process is draining
// (SIGINT/SIGTERM) or joining/leaving a cluster ring, so a coordinator
// stops routing to it without killing in-flight requests.
type Readiness struct {
	notReady atomic.Bool // the zero value is ready
}

// SetReady flips the readiness probe. cmd/gpucmpd calls SetReady(false)
// when a drain signal arrives.
func (p *Readiness) SetReady(ready bool) { p.notReady.Store(!ready) }

// Ready reports the current readiness state.
func (p *Readiness) Ready() bool { return !p.notReady.Load() }

// ServeLive answers the liveness probe.
func (p *Readiness) ServeLive(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{"status": "alive"})
}

// ServeReady answers the readiness probe.
func (p *Readiness) ServeReady(w http.ResponseWriter, r *http.Request) {
	if !p.Ready() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

// WriteJSON writes v with status code, as one line of compact JSON.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client went away; nothing to do
}

// errorBody is the uniform error shape of every endpoint: a human
// message plus a stable machine code ("bad-json", "unknown-device",
// "unbounded-loop", ...). Codes are API contract: never change one, only
// add.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// WriteError writes the typed error reply.
func WriteError(w http.ResponseWriter, status int, code string, err error) {
	WriteJSON(w, status, errorBody{Error: err.Error(), Code: code})
}

// Machine codes for errors that originate in the server itself (domain
// layers carry their own: submit.Code, kir.ErrCode).
const (
	codeBadJSON          = "bad-json"
	codeBadRequest       = "bad-request"
	codeUnknownDevice    = "unknown-device"
	codeUnknownBenchmark = "unknown-benchmark"
	codeNotFound         = "not-found"
	codeMethodNotAllowed = "method-not-allowed"
	codeTooLarge         = "too-large"
	codeBadTenant        = "bad-tenant"
	codeQuota            = "quota-exceeded"
	codeInternal         = "internal"
	codeUnavailable      = "unavailable"
	codeCoexecFailed     = "coexec-failed"
)

// tenantRe validates the X-Tenant header: short, printable, no
// separators, so tenant names can appear raw in cache keys and metrics
// labels.
var tenantRe = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// DefaultTenant is used when a request carries no X-Tenant header.
const DefaultTenant = "anon"

// coexecTenant is the tenant POST /coexec runs under. No client may name
// itself so on a route that takes a tenant, or its submissions would
// evict /coexec results from that tenant's cache and count in its
// metrics rows.
const coexecTenant = "coexec"

// TenantOf returns the request's X-Tenant, or DefaultTenant.
func TenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return DefaultTenant
}

// Admit is the tenant admission both binaries run before a route that
// is not Local does any work. The tenant must be a valid name, and on a
// route that takes a tenant not the reserved coexec one; only then is
// its quota in q charged (a nil q charges none). A refusal is written
// here — a 400 bad-tenant, or a 429 classified "quota" with Retry-After,
// counted in denied — and Admit returns false.
func Admit(w http.ResponseWriter, r *http.Request, rt Route, q *sched.TenantQuotas, denied *atomic.Uint64) bool {
	tenant := TenantOf(r)
	if !tenantRe.MatchString(tenant) {
		WriteError(w, http.StatusBadRequest, codeBadTenant, fmt.Errorf("X-Tenant must match %s", tenantRe))
		return false
	}
	if rt.Tenant && tenant == coexecTenant {
		WriteError(w, http.StatusBadRequest, codeBadTenant,
			fmt.Errorf("X-Tenant %q is reserved for POST /coexec", tenant))
		return false
	}
	if q == nil {
		return true
	}
	if ok, retry := q.Allow(tenant); !ok {
		secs := math.Ceil(retry.Seconds())
		w.Header().Set("Retry-After", strconv.Itoa(int(secs)))
		denied.Add(1)
		WriteJSON(w, http.StatusTooManyRequests, kernelResponse{
			Classification:    ClassQuota,
			Code:              codeQuota,
			Error:             fmt.Sprintf("tenant %q is over its quota", tenant),
			RetryAfterSeconds: secs,
		})
		return false
	}
	return true
}

// ReadBody reads a request body of at most limit bytes. On failure it
// writes the typed refusal — 413 too-large past the limit, else 400
// bad-json — and returns false. Memory grows with the bytes that arrive,
// not with a declared Content-Length.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		status, code := http.StatusBadRequest, codeBadJSON
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status, code = http.StatusRequestEntityTooLarge, codeTooLarge
		}
		WriteError(w, status, code, fmt.Errorf("bad %s body: %w", r.URL.Path, err))
		return nil, false
	}
	return body, true
}

// decodeJSON decodes a strict JSON body; on failure it writes the 400
// bad-json reply itself and returns false.
func decodeJSON[T any](w http.ResponseWriter, body []byte) (*T, bool) {
	var v T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		WriteError(w, http.StatusBadRequest, codeBadJSON, fmt.Errorf("bad request body: %w", err))
		return nil, false
	}
	return &v, true
}

// DecodeJob decodes and checks a POST /run body, as both binaries admit
// it. On failure it writes the typed 400 — bad-json, unknown-benchmark,
// unknown-device or bad-request — and returns false.
func DecodeJob(w http.ResponseWriter, body []byte) (sched.Job, bool) {
	job, ok := decodeJSON[sched.Job](w, body)
	if !ok {
		return sched.Job{}, false
	}
	if err := job.Validate(); err != nil {
		code := codeBadRequest
		if _, serr := bench.SpecByName(job.Benchmark); serr != nil {
			code = codeUnknownBenchmark
		} else if _, aerr := arch.Resolve(job.Device); aerr != nil {
			code = codeUnknownDevice
		}
		WriteError(w, http.StatusBadRequest, code, err)
		return sched.Job{}, false
	}
	return *job, true
}
