// Command zngd serves simulations over HTTP: an always-on daemon in
// front of the coalescing job scheduler (internal/simsvc) and the
// persistent content-addressed result store (internal/store), so many
// clients can share one simulation engine — concurrent identical
// requests cost one simulation, and anything ever computed against
// the same cache directory is served from disk across restarts.
//
// Usage:
//
//	zngd -addr 127.0.0.1:8080 -cache ~/.zng-cache
//	zngd -addr 127.0.0.1:0 -addr-file /tmp/zngd.addr   # random port, scripted
//
// Endpoints (JSON):
//
//	POST /v1/run             {"platform":"ZnG","mix":"betw-back","scale":0.12}; "async":true for 202 + job; ?wait=D
//	GET  /v1/jobs            job list
//	GET  /v1/jobs/{id}       job status (+ result document once done); ?wait=D
//	POST /v1/campaigns       start a declarative sweep (internal/campaign Spec)
//	GET  /v1/campaigns       campaign list with live progress
//	GET  /v1/campaigns/{id}  campaign progress + result matrix once done; ?wait=D
//	POST /v1/campaigns/{id}/resume  resume a store-checkpointed campaign
//	POST /v1/fleet/register  join a worker to this coordinator's fleet
//	POST /v1/fleet/heartbeat refresh a worker's liveness and load
//	GET  /v1/fleet           live peer roster + fleet gauges
//	GET  /v1/scenarios       workload scenario registry
//	GET  /v1/platforms       platform vocabulary
//	GET  /v1/trace           trace flight recorder (filter: endpoint, status, min_ms)
//	GET  /v1/trace/stats     per-stage latency breakdown
//	GET  /v1/trace/{id}      one trace's full span tree
//	GET  /healthz            liveness
//	GET  /metrics            counters (sims, memory/disk hits, coalesced, jobs, evictions, rejections, tier gauges, latency quantiles); ?format=prom for Prometheus text
//
// Long polls: an async POST /v1/run, GET /v1/jobs/{id} and
// GET /v1/campaigns/{id} take ?wait=D (a Go duration, capped at
// simsvc.MaxWait, 20s) and hold the reply until the job or campaign
// finishes, D elapses or the client goes away. An async run whose job
// finishes within the wait is answered 200 with the result document,
// as a done-job poll is; otherwise 202 with the job to poll.
//
// Observability: requests carrying an X-Zng-Trace header join the
// caller's distributed trace; direct runs are sampled 1-in
// -trace-sample. Completed spans land in a bounded in-memory flight
// recorder (-trace-buf) served by the /v1/trace endpoints. Logs are
// structured (log/slog); -log-level takes per-subsystem overrides
// ("warn,fleet=debug") and -log-json switches to JSON lines.
//
// Serving is tiered: -mem-cache sizes an in-memory LRU of decoded
// result documents fronting the store, so the hot working set skips
// the disk read+decode entirely (0 disables it). Admission is
// bounded: past -max-queue pending simulations, new work is refused
// with 429 Too Many Requests and a Retry-After estimate, so overload
// sheds instead of queueing without limit.
//
// Job history is bounded: past -max-jobs completed jobs, the oldest
// persisted (or failed) jobs are evicted from memory and their cells
// re-serve from the store (through the memory tier). On
// SIGINT/SIGTERM the daemon stops accepting connections, lets
// in-flight requests (and their simulations) drain, then closes the
// service.
//
// Fleet: every zngd is a coordinator — workers join it with POST
// /v1/fleet/register and heartbeats, campaigns POSTed to it fan out
// over the live membership (falling back to local execution), and
// with -cache the coordinator checkpoints each campaign's spec and
// stores every finished cell, so POST /v1/campaigns/{id}/resume picks
// a half-finished sweep back up after a restart, re-running only the
// cells the store lacks. Past fleet.DefaultMaxCampaigns (64) campaigns
// in memory the oldest finished ones are evicted; their checkpoints
// still resume. A spec that does not expand, or whose grid is over
// campaign.MaxCells cells, is rejected with 400 and writes nothing.
// Started with -coordinator URL, the daemon is additionally a worker:
// it registers its own serving address (-advertise overrides what it
// announces) with that coordinator and heartbeats its queue depth
// until shutdown.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"zng/internal/config"
	"zng/internal/fleet"
	"zng/internal/obs"
	"zng/internal/simsvc"
	"zng/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a random free port)")
		cacheDir = flag.String("cache", "", "persistent result store directory (empty: memory-only)")
		workers  = flag.Int("workers", 0, "concurrent simulations (0 = NumCPU)")
		maxJobs  = flag.Int("max-jobs", 4096, "retained completed jobs before eviction (0 = unbounded)")
		memCache = flag.Int("mem-cache", 4096, "in-memory result-tier entries fronting the store (0 = no memory tier)")
		maxQueue = flag.Int("max-queue", 1024, "pending simulations before admission returns 429 (0 = unbounded)")
		addrFile = flag.String("addr-file", "", "write the actual listen address to this file once bound")
		drain    = flag.Duration("drain", 5*time.Minute, "graceful-shutdown drain budget for in-flight simulations")

		coordinator = flag.String("coordinator", "", "join this coordinator's fleet as a worker (host:port or URL)")
		advertise   = flag.String("advertise", "", "address to register with the coordinator (default: the bound listen address)")
		fleetTTL    = flag.Duration("fleet-ttl", fleet.DefaultTTL, "heartbeat expiry window for workers registered with this daemon")

		logLevel    = flag.String("log-level", "info", `log level, optionally per subsystem: "debug", "warn,fleet=debug"`)
		logJSON     = flag.Bool("log-json", false, "emit structured logs as JSON lines instead of text")
		traceBuf    = flag.Int("trace-buf", obs.DefaultCapacity, "completed spans retained in the trace flight recorder (0 disables tracing)")
		traceSample = flag.Int("trace-sample", 64, "trace 1 in N direct /v1/run requests (campaigns and propagated traces are always recorded)")
	)
	flag.Parse()

	levels, err := obs.ParseLevels(*logLevel)
	if err != nil {
		fatal(err)
	}
	log := obs.NewLogger(os.Stderr, levels, *logJSON)
	var tracer *obs.Tracer
	if *traceBuf > 0 {
		tracer = obs.New("zngd", *traceBuf, *traceSample)
	}

	var st *store.Store
	if *cacheDir != "" {
		var err error
		if st, err = store.Open(*cacheDir); err != nil {
			fatal(err)
		}
	}
	svc := simsvc.New(simsvc.Config{
		Store:        st,
		Workers:      *workers,
		MaxJobs:      *maxJobs,
		CacheEntries: *memCache,
		MaxQueue:     *maxQueue,
		Tracer:       tracer,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		// The file appears atomically with the address in it, so a
		// script can poll for it and connect immediately.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(bound+"\n"), 0o644); err != nil {
			fatal(err)
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			fatal(err)
		}
	}
	// The bound address names this process in every span it records, so
	// a cross-process trace reads "which worker ran this cell" off the
	// span itself.
	tracer.SetProc("zngd@" + bound)
	cache := "memory-only"
	if st != nil {
		cache = st.Dir()
	} else if *maxJobs > 0 {
		// Without a store, completed results have nowhere to be
		// re-served from, so retention only ever evicts failed jobs.
		log.Warn("no -cache: -max-jobs bounds failed jobs only; completed results are retained for the process lifetime")
	}
	log.Info("listening", "addr", "http://"+bound, "cache", cache)

	// Every daemon coordinates: a campaign POSTed here fans out over
	// whatever workers have registered (none = plain local execution).
	// With a store, campaigns checkpoint under it and survive restarts.
	// The daemon builds the coordinator NewHandler would otherwise
	// build, to set the heartbeat TTL, the campaign worker bound and
	// the logger.
	fc := fleet.New(fleet.Config{
		Local:   svc,
		Store:   st,
		TTL:     *fleetTTL,
		Workers: *workers,
		Base:    config.Default(),
		Tracer:  tracer,
		Log:     log,
	})
	srv := &http.Server{Handler: simsvc.NewHandler(svc, config.Default(), simsvc.WithFleet(fc))}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	// Worker mode: keep this daemon registered with the coordinator,
	// heartbeating the live backlog, until shutdown. The agent
	// re-registers on its own after coordinator restarts or missed
	// heartbeats.
	if *coordinator != "" {
		workerAddr := bound
		if *advertise != "" {
			workerAddr = *advertise
		}
		agent := fleet.StartAgent(*coordinator, workerAddr, svc.Load)
		defer agent.Stop()
		obs.Sub(log, "fleet").Info("worker joined coordinator", "coordinator", *coordinator, "advertise", workerAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	log.Info("shutting down, draining in-flight simulations", "budget", drain.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Error("shutdown", "err", err)
	}
	// The drain budget bounds the whole shutdown, service included: a
	// multi-hour cell must not keep the process alive past -drain.
	closed := make(chan struct{})
	go func() {
		svc.Close()
		close(closed)
	}()
	select {
	case <-closed:
		log.Info("drained; exiting")
	case <-shutdownCtx.Done():
		log.Error("drain budget exhausted; exiting with simulations in flight (their cells are lost)")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "zngd:", err)
	os.Exit(1)
}
