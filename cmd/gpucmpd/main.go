// Command gpucmpd serves the experiment matrix over HTTP: POST /run
// executes one (benchmark, device, toolchain, config) cell through the
// concurrent scheduler, GET /figures/{fig1..fig8,tableV,tableVI,grid,
// tune,pattern,coexec} regenerates any paper artifact or study on
// demand, and /metrics exposes the
// scheduler's counters and latency histograms. Identical requests are
// deduplicated while in flight and served from the result cache
// afterwards; kernels are compiled once per front-end, not once per
// launch. POST /coexec splits one workload across several modelled
// devices with transfer-inclusive scheduling and survives mid-run
// device loss (see -inject-transfer-rate / -inject-device-lost-rate).
//
//	gpucmpd -addr :8480 &
//	curl localhost:8480/healthz
//	curl -X POST localhost:8480/run -d '{"benchmark":"FFT","device":"GeForce GTX480","toolchain":"opencl","config":{"scale":4}}'
//	curl localhost:8480/figures/fig3?scale=4
//	curl localhost:8480/metrics
//
// The fault-injection acceptance tests that hold the scheduler under this
// daemon to its guarantees (typed errors only, watchdog reclaim, no leaked
// goroutines) are the chaos suite, go test ./internal/fault/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the DefaultServeMux for -pprof
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"gpucmp/internal/cluster"
	"gpucmp/internal/fault"
	"gpucmp/internal/sched"
	"gpucmp/internal/server"
	"gpucmp/internal/submit"
)

// errUsage marks a command-line error, on which main exits 2.
var errUsage = errors.New("usage")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop) // a second signal kills the process immediately
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		log.Printf("gpucmpd: %v", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run parses args, listens, prints the address it bound to stdout and
// serves, as a worker or with -coordinator as the fleet coordinator, until
// ctx ends; then it drains and returns nil.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gpucmpd", flag.ContinueOnError)
	addr := fs.String("addr", ":8480", "listen address")
	workers := fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	cacheSize := fs.Int("cache-size", 4096, "result-cache entries (negative disables caching)")
	jobTimeout := fs.Duration("job-timeout", 5*time.Minute, "per-job execution timeout (0 = unbounded)")
	figureScale := fs.Int("figure-scale", 4, "default problem-size divisor for /figures/*")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
	quotaRate := fs.Float64("quota-rate", 0, "accepted requests per second per X-Tenant: POST /kernels on a worker, every routed request in coordinator mode (0 = unlimited)")
	quotaBurst := fs.Float64("quota-burst", 0, "per-tenant burst capacity of -quota-rate (0 = max(rate, 1))")
	tenantCache := fs.Int("tenant-cache-size", 64, "POST /kernels: per-tenant result-cache entries (negative disables)")
	stepBudget := fs.Uint64("submit-step-budget", 0, "POST /kernels: watchdog warp-instruction budget per work group (0 = default)")
	coordinator := fs.Bool("coordinator", false, "run as fleet coordinator: admit and route requests to -shards instead of executing locally")
	shards := fs.String("shards", "", "coordinator mode: comma-separated worker base URLs (e.g. http://127.0.0.1:8481,http://127.0.0.1:8482)")
	hedgeQuantile := fs.Float64("hedge-quantile", 0.95, "coordinator mode: latency quantile that arms the hedge timer")
	hedgeMin := fs.Duration("hedge-min", 20*time.Millisecond, "coordinator mode: hedge-delay floor")
	hedgeMax := fs.Duration("hedge-max", 2*time.Second, "coordinator mode: hedge-delay cap")
	maxInFlight := fs.Int("max-inflight", 512, "coordinator mode: shed with 503 above this many in-flight requests (negative disables)")
	probeInterval := fs.Duration("probe-interval", time.Second, "coordinator mode: worker readiness-probe period")
	vnodes := fs.Int("ring-vnodes", cluster.DefaultVirtualNodes, "coordinator mode: virtual nodes per ring member")
	injectSeed := fs.Uint64("inject-seed", 1, "serving mode: fault-injection seed (with -inject-slow-rate and the coexec rates)")
	injectSlowRate := fs.Float64("inject-slow-rate", 0, "serving mode: fraction of kernel launches stalled by an injected straggler delay (0 disables)")
	injectSlowDelay := fs.Duration("inject-slow-delay", 300*time.Millisecond, "serving mode: straggler delay for -inject-slow-rate")
	injectTransferRate := fs.Float64("inject-transfer-rate", 0, "serving mode: fraction of POST /coexec shard launches failed with a transfer error (0 disables)")
	injectDeviceLostRate := fs.Float64("inject-device-lost-rate", 0, "serving mode: fraction of POST /coexec shard launches that kill the whole device (0 disables)")
	injectMaxPerKey := fs.Int("inject-max-per-key", 3, "serving mode: per-shard cap on injected coexec transfer errors (device losses are never capped)")
	drainNotice := fs.Duration("drain-notice", 0, "on SIGINT/SIGTERM, hold readiness down this long before closing listeners (lets coordinator probes evict us first: allow three probe intervals)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	var workerURLs []string
	for _, s := range strings.Split(*shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			workerURLs = append(workerURLs, strings.TrimRight(s, "/"))
		}
	}
	if *coordinator && len(workerURLs) == 0 {
		return fmt.Errorf("%w: -coordinator requires -shards with at least one worker URL", errUsage)
	}
	// A straggler-only schedule for /run launches: they stall but still
	// succeed, which is exactly the slow-shard shape request hedging is
	// built to beat. Shard-granular faults for the co-execution path:
	// transfer errors (capped per shard so recovery terminates) and device
	// losses, deterministic in (seed, device, shard, attempt) and drawn
	// afresh for every /coexec run.
	slowFaults := fault.Schedule{SlowRate: *injectSlowRate, SlowDelay: *injectSlowDelay}
	coexecFaults := fault.Schedule{
		TransferRate:   *injectTransferRate,
		DeviceLostRate: *injectDeviceLostRate,
		MaxPerKey:      *injectMaxPerKey,
	}
	for _, sch := range []fault.Schedule{slowFaults, coexecFaults} {
		if err := sch.Validate(); err != nil {
			return fmt.Errorf("%w: %v", errUsage, err)
		}
	}

	if *pprofAddr != "" {
		// pprof gets its own listener so profiling endpoints never ride on
		// the public API address (and the DefaultServeMux registration that
		// importing net/http/pprof performs stays off the main handler).
		go func() {
			log.Printf("gpucmpd: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("gpucmpd: pprof server: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	if *coordinator {
		// No local execution: admission control and routing over the
		// worker shards.
		coord := cluster.New(cluster.Config{
			Workers:       workerURLs,
			VirtualNodes:  *vnodes,
			HedgeQuantile: *hedgeQuantile,
			HedgeMinDelay: *hedgeMin,
			HedgeMaxDelay: *hedgeMax,
			MaxInFlight:   *maxInFlight,
			Quota:         sched.QuotaConfig{Rate: *quotaRate, Burst: *quotaBurst},
			ProbeInterval: *probeInterval,
		})
		coord.Start()
		defer coord.Close()
		fmt.Fprintf(stdout, "gpucmpd: coordinating %d workers on %s\n", len(workerURLs), ln.Addr())
		// The write timeout must outlast the slowest worker response.
		return serve(ctx, ln, coord.Handler(), &coord.Readiness, 16*time.Minute, *drainNotice)
	}

	var inj *fault.Injector
	if *injectSlowRate > 0 {
		inj = fault.New(*injectSeed, slowFaults)
		log.Printf("gpucmpd: injecting %.0f%% slow launches (+%v, seed %d)",
			*injectSlowRate*100, *injectSlowDelay, *injectSeed)
	}

	s := sched.New(sched.Options{
		Workers:         *workers,
		CacheSize:       *cacheSize,
		JobTimeout:      *jobTimeout,
		Quota:           sched.QuotaConfig{Rate: *quotaRate, Burst: *quotaBurst},
		TenantCacheSize: *tenantCache,
		Injector:        inj,
	})
	defer s.Close()

	// The write timeout must outlast the slowest legitimate response — a
	// cache-miss /run or /figures request that executes jobs — so derive
	// it from the job timeout rather than guessing.
	writeTimeout := 15 * time.Minute
	if *jobTimeout > 0 {
		writeTimeout = *jobTimeout + time.Minute
	}
	limits := submit.DefaultLimits()
	if *stepBudget > 0 {
		limits.StepBudget = *stepBudget
	}
	opts := []server.Option{server.WithFigureScale(*figureScale), server.WithSubmitLimits(limits)}
	if *injectTransferRate > 0 || *injectDeviceLostRate > 0 {
		opts = append(opts, server.WithCoexecFaults(*injectSeed, coexecFaults))
		log.Printf("gpucmpd: injecting coexec faults: %.0f%% transfer errors, %.0f%% device losses (seed %d)",
			*injectTransferRate*100, *injectDeviceLostRate*100, *injectSeed)
	}
	srv := server.New(s, opts...)
	fmt.Fprintf(stdout, "gpucmpd: serving on %s\n", ln.Addr())
	return serve(ctx, ln, srv.Handler(), &srv.Readiness, writeTimeout, *drainNotice)
}

// serve answers h on ln until ctx ends, then drains: it fails readiness
// first so load balancers and the fleet coordinator's probes stop sending
// new work, holds that state for drainNotice, and gives in-flight requests
// 30 s to finish before closing.
func serve(ctx context.Context, ln net.Listener, h http.Handler, ready *server.Readiness, writeTimeout, drainNotice time.Duration) error {
	httpSrv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	// Shutdown counts a connection on which no request has started as
	// active for its first 5 s, so one a client dialled and never used
	// would hold the drain that long. serve closes those itself once the
	// listeners are closed.
	var (
		mu       sync.Mutex
		fresh    = map[net.Conn]bool{}
		draining bool
	)
	httpSrv.ConnState = func(c net.Conn, st http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case st != http.StateNew:
			delete(fresh, c)
		case draining:
			c.Close()
		default:
			fresh[c] = true
		}
	}
	httpSrv.RegisterOnShutdown(func() {
		mu.Lock()
		defer mu.Unlock()
		draining = true
		for c := range fresh {
			c.Close()
		}
	})
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	log.Print("gpucmpd: draining in-flight requests")
	ready.SetReady(false)
	time.Sleep(drainNotice)
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("gpucmpd: shutdown: %v", err)
	} else {
		log.Print("gpucmpd: drained cleanly")
	}
	return nil
}
