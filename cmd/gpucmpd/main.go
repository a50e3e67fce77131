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
// With -chaos the daemon does not serve: it runs a one-shot chaos smoke
// test — the benchmark matrix under a 30% injected transient-failure rate
// plus occasional hangs — and exits 0 only if every job either succeeded
// or failed with a typed permanent error and no goroutines leaked. CI
// runs this as a post-build smoke check.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the DefaultServeMux for -pprof
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/cluster"
	"gpucmp/internal/fault"
	"gpucmp/internal/sched"
	"gpucmp/internal/server"
	"gpucmp/internal/submit"
)

func main() {
	addr := flag.String("addr", ":8480", "listen address")
	workers := flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache-size", 4096, "result-cache entries (negative disables caching)")
	jobTimeout := flag.Duration("job-timeout", 5*time.Minute, "per-job execution timeout (0 = unbounded)")
	figureScale := flag.Int("figure-scale", 4, "default problem-size divisor for /figures/*")
	chaos := flag.Bool("chaos", false, "run the one-shot chaos smoke test and exit instead of serving")
	chaosSeed := flag.Uint64("chaos-seed", 1, "fault-injection seed for -chaos")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
	quotaRate := flag.Float64("quota-rate", 0, "POST /kernels: accepted submissions per second per tenant (0 = unlimited)")
	quotaBurst := flag.Float64("quota-burst", 0, "POST /kernels: per-tenant burst capacity (0 = max(rate, 1))")
	tenantCache := flag.Int("tenant-cache-size", 64, "POST /kernels: per-tenant result-cache entries (negative disables)")
	stepBudget := flag.Uint64("submit-step-budget", 0, "POST /kernels: watchdog warp-instruction budget per work group (0 = default)")
	coordinator := flag.Bool("coordinator", false, "run as fleet coordinator: admit and route requests to -shards instead of executing locally")
	shards := flag.String("shards", "", "coordinator mode: comma-separated worker base URLs (e.g. http://127.0.0.1:8481,http://127.0.0.1:8482)")
	hedgeQuantile := flag.Float64("hedge-quantile", 0.95, "coordinator mode: latency quantile that arms the hedge timer")
	hedgeMin := flag.Duration("hedge-min", 20*time.Millisecond, "coordinator mode: hedge-delay floor")
	hedgeMax := flag.Duration("hedge-max", 2*time.Second, "coordinator mode: hedge-delay cap")
	maxInFlight := flag.Int("max-inflight", 512, "coordinator mode: shed with 503 above this many in-flight requests (negative disables)")
	probeInterval := flag.Duration("probe-interval", time.Second, "coordinator mode: worker readiness-probe period")
	vnodes := flag.Int("ring-vnodes", cluster.DefaultVirtualNodes, "coordinator mode: virtual nodes per ring member")
	injectSeed := flag.Uint64("inject-seed", 1, "serving mode: fault-injection seed (with -inject-slow-rate and the coexec rates)")
	injectSlowRate := flag.Float64("inject-slow-rate", 0, "serving mode: fraction of kernel launches stalled by an injected straggler delay (0 disables)")
	injectSlowDelay := flag.Duration("inject-slow-delay", 300*time.Millisecond, "serving mode: straggler delay for -inject-slow-rate")
	injectTransferRate := flag.Float64("inject-transfer-rate", 0, "serving mode: fraction of POST /coexec shard launches failed with a transfer error (0 disables)")
	injectDeviceLostRate := flag.Float64("inject-device-lost-rate", 0, "serving mode: fraction of POST /coexec shard launches that kill the whole device (0 disables)")
	injectMaxPerKey := flag.Int("inject-max-per-key", 3, "serving mode: per-shard cap on injected coexec transfer errors (device losses are never capped)")
	drainNotice := flag.Duration("drain-notice", 0, "on SIGINT/SIGTERM, hold readiness down this long before closing listeners (lets coordinator probes evict us first: allow three probe intervals)")
	flag.Parse()

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

	if *chaos {
		os.Exit(runChaos(*chaosSeed, *workers))
	}

	if *coordinator {
		os.Exit(runCoordinator(*addr, *shards, cluster.Config{
			VirtualNodes:  *vnodes,
			HedgeQuantile: *hedgeQuantile,
			HedgeMinDelay: *hedgeMin,
			HedgeMaxDelay: *hedgeMax,
			MaxInFlight:   *maxInFlight,
			Quota:         sched.QuotaConfig{Rate: *quotaRate, Burst: *quotaBurst},
			ProbeInterval: *probeInterval,
		}, *drainNotice))
	}

	var inj *fault.Injector
	if *injectSlowRate > 0 {
		// A straggler-only schedule: launches stall but still succeed, which
		// is exactly the slow-shard shape request hedging is built to beat.
		inj = fault.New(*injectSeed, fault.Schedule{
			SlowRate:  *injectSlowRate,
			SlowDelay: *injectSlowDelay,
		})
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
		// A separate injector for the co-execution path: shard-granular
		// transfer errors (capped per shard so recovery terminates) and
		// device losses, deterministic in (seed, device, shard).
		opts = append(opts, server.WithCoexecFaults(fault.New(*injectSeed, fault.Schedule{
			TransferRate:   *injectTransferRate,
			DeviceLostRate: *injectDeviceLostRate,
			MaxPerKey:      *injectMaxPerKey,
		})))
		log.Printf("gpucmpd: injecting coexec faults: %.0f%% transfer errors, %.0f%% device losses (seed %d)",
			*injectTransferRate*100, *injectDeviceLostRate*100, *injectSeed)
	}
	srv := server.New(s, opts...)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-stop
		log.Printf("gpucmpd: %v received, draining in-flight requests", sig)
		signal.Stop(stop) // a second signal kills the process immediately
		// Fail readiness first so load balancers and the fleet
		// coordinator's probes stop sending new work, optionally holding
		// that state before closing listeners.
		srv.SetReady(false)
		if *drainNotice > 0 {
			time.Sleep(*drainNotice)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("gpucmpd: shutdown: %v", err)
		} else {
			log.Printf("gpucmpd: drained cleanly")
		}
	}()

	log.Printf("gpucmpd: serving on %s", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-done
}

// runCoordinator serves the fleet-coordinator role: no local execution,
// just admission control and routing over the worker shards. Returns the
// process exit code.
func runCoordinator(addr, shards string, cfg cluster.Config, drainNotice time.Duration) int {
	for _, s := range strings.Split(shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			cfg.Workers = append(cfg.Workers, strings.TrimRight(s, "/"))
		}
	}
	if len(cfg.Workers) == 0 {
		log.Print("gpucmpd: -coordinator requires -shards with at least one worker URL")
		return 2
	}
	coord := cluster.New(cfg)
	coord.Start()
	defer coord.Close()

	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           coord.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      16 * time.Minute, // must outlast the slowest worker response
		IdleTimeout:       2 * time.Minute,
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-stop
		log.Printf("gpucmpd: %v received, draining coordinator", sig)
		signal.Stop(stop)
		coord.SetReady(false)
		if drainNotice > 0 {
			time.Sleep(drainNotice)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("gpucmpd: shutdown: %v", err)
		}
	}()

	log.Printf("gpucmpd: coordinating %d workers on %s", len(cfg.Workers), addr)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Print(err)
		return 1
	}
	<-done
	return 0
}

// runChaos executes the chaos smoke: the cheap cross-toolchain benchmark
// matrix under injected faults. Returns the process exit code.
func runChaos(seed uint64, workers int) int {
	inj := fault.New(seed, fault.Schedule{TransientRate: 0.3, HangRate: 0.05})
	before := runtime.NumGoroutine()
	s := sched.New(sched.Options{
		Workers:    workers,
		JobTimeout: 15 * time.Second,
		Injector:   inj,
	})

	var jobs []sched.Job
	gpu := arch.GTX480()
	for _, b := range []string{"Reduce", "Scan", "Sobel", "TranP"} {
		for _, tc := range bench.Toolchains(gpu) {
			j := sched.Job{Benchmark: b, Device: gpu.Name, Toolchain: tc.Name}
			j.Config.Scale = 16
			jobs = append(jobs, j)
		}
	}

	log.Printf("chaos: running %d jobs at 30%% transient / 5%% hang rate (seed %d)", len(jobs), seed)
	start := time.Now()
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j sched.Job) {
			defer wg.Done()
			_, errs[i] = s.Run(context.Background(), j)
		}(i, j)
	}
	wg.Wait()
	elapsed := time.Since(start)

	bad, ok := 0, 0
	for i, jerr := range errs {
		switch {
		case jerr == nil:
			ok++
		case errors.Is(jerr, sched.ErrPermanent), errors.Is(jerr, sched.ErrWatchdog):
			log.Printf("chaos: job %s failed typed (%s): %v", jobs[i].Key(), sched.ClassOf(jerr), jerr)
			ok++
		default:
			log.Printf("chaos: FAIL job %s returned untyped error: %v", jobs[i].Key(), jerr)
			bad++
		}
	}

	snap := s.Metrics().Snapshot()
	s.Close()

	// Goroutine-leak check: everything the scheduler spawned must exit.
	leakDeadline := time.Now().Add(10 * time.Second)
	leaked := true
	for time.Now().Before(leakDeadline) {
		if runtime.NumGoroutine() <= before+2 {
			leaked = false
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	log.Printf("chaos: %d/%d jobs ok in %v; retries=%d timeouts=%d reclaims=%d leaks=%d faults=%v",
		ok, len(jobs), elapsed.Round(time.Millisecond),
		snap.Retries, snap.Timeouts, snap.WatchdogReclaims, snap.WatchdogLeaks, inj.Counts())

	if bad > 0 {
		log.Printf("chaos: FAIL: %d jobs returned untyped errors", bad)
		return 1
	}
	if snap.WatchdogLeaks > 0 {
		log.Printf("chaos: FAIL: %d watchdog kills failed to reclaim their worker", snap.WatchdogLeaks)
		return 1
	}
	if leaked {
		log.Printf("chaos: FAIL: goroutines leaked (%d before, %d after)", before, runtime.NumGoroutine())
		return 1
	}
	fmt.Println("chaos: PASS")
	return 0
}
