package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"zng/internal/campaign"
	"zng/internal/cellkey"
	"zng/internal/config"
	"zng/internal/platform"
	"zng/internal/remote"
	"zng/internal/report"
	"zng/internal/restier"
	"zng/internal/simsvc"
	"zng/internal/store"
	"zng/internal/workload"
)

// The serve-sweep grid: every cell is simulated once by the set-up
// campaign and then only ever served. GDDR5 and Optane documents are
// about 340 B, HybridGPU and ZnG ones about 8 KB.
var (
	servePlatforms = []string{"GDDR5", "HybridGPU", "ZnG", "Optane"}
	serveScenarios = []string{"solo-bfs1", "solo-gaus", "solo-pr", "solo-back", "solo-betw", "solo-FDT"}
	serveScales    = []float64{0.05, 0.1}
)

const (
	// sweepWorkers is the campaign executor's concurrency. zngsweep's
	// default is one cell in flight per CPU; it is fixed at the 2 of the
	// host the bounds were fitted on, so every host replays the same
	// load.
	sweepWorkers = 2
	// setupBoots is how many times an untraced run boots and warms a
	// daemon on a fresh store; setup_s is their median.
	setupBoots = 3
	// zngd's default -max-jobs and -mem-cache, which the loaded daemons
	// run with and the in-process handler copies.
	daemonMaxJobs  = 4096
	daemonMemCache = 4096
	// handlerCycles is how many fresh in-process services serve the
	// sweep twice for allocs_per_op and api.handler_us; callRounds
	// passes over the warmed documents time each cheaper call.
	handlerCycles = 8
	callRounds    = 50
)

func gridScales(quick bool) []float64 {
	if quick {
		return []float64{quickScale}
	}
	return serveScales
}

// sweepSpec is the campaign the set-up and every load sweep run: the
// grid with its platform and scenario axes in an order drawn from the
// seed. The executor submits cells in expansion order, so the seed
// sets the request sequence; the cells, and so the work, are the same
// for every seed.
func sweepSpec(seed int64, quick bool) campaign.Spec {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x73776570))
	spec := campaign.Spec{Name: "zngbench", Platforms: slices.Clone(servePlatforms),
		Scenarios: slices.Clone(serveScenarios), Scales: gridScales(quick)}
	rng.Shuffle(len(spec.Platforms), func(i, j int) { spec.Platforms[i], spec.Platforms[j] = spec.Platforms[j], spec.Platforms[i] })
	rng.Shuffle(len(spec.Scenarios), func(i, j int) { spec.Scenarios[i], spec.Scenarios[j] = spec.Scenarios[j], spec.Scenarios[i] })
	return spec
}

// daemon is one running zngd.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
}

// startDaemon runs zngd with its default retention and tier sizes over
// the store at cache, with its address file in dir. An untraced daemon
// records no spans; a traced one records every request.
func startDaemon(ctx context.Context, bin, dir, cache string, traced bool) (*daemon, error) {
	addrFile := filepath.Join(dir, "addr")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.Remove(addrFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	args := []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-cache", cache, "-log-level", "warn"}
	if traced {
		args = append(args, "-trace-sample", "1")
	} else {
		args = append(args, "-trace-buf", "0")
	}
	d := &daemon{cmd: exec.CommandContext(ctx, bin, args...)}
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting zngd: %w", err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		b, err := os.ReadFile(addrFile)
		if err == nil {
			d.base = "http://" + strings.TrimSpace(string(b))
			return d, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("zngd did not bind: %s", strings.TrimSpace(d.stderr.String()))
		}
	}
}

// stop asks the daemon to drain and waits for it, killing it if it
// has not exited after 10 s. Its CPU time is then in
// d.cmd.ProcessState.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited; Wait reaps it
	done := make(chan struct{})
	go func() {
		// The exit status does not matter: the daemon's replies and
		// /metrics were checked while it ran.
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return doJSON(hc, req, http.StatusOK, v)
}

func doJSON(hc *http.Client, req *http.Request, want int, v any) error {
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// warm posts the spec as one campaign, as `zngsweep -coordinator`
// does, and waits for it to finish.
func warm(ctx context.Context, hc *http.Client, base string, spec campaign.Spec) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/campaigns", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var started struct {
		Campaign struct{ ID string } `json:"campaign"`
	}
	if err := doJSON(hc, req, http.StatusAccepted, &started); err != nil {
		return fmt.Errorf("set-up campaign: %w", err)
	}
	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(5 * time.Millisecond) {
		var c struct {
			State    string            `json:"state"`
			Progress campaign.Progress `json:"progress"`
		}
		if err := getJSON(ctx, hc, base+"/v1/campaigns/"+started.Campaign.ID, &c); err != nil {
			return fmt.Errorf("set-up campaign: %w", err)
		}
		if c.State == "done" {
			if c.Progress.Failed > 0 || c.Progress.Done != c.Progress.Total {
				return fmt.Errorf("set-up campaign: %d of %d cells failed", c.Progress.Failed, c.Progress.Total)
			}
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("set-up campaign did not finish within 2 minutes")
		}
	}
}

// warmed is the grid's documents as the set-up stored them: the
// expected answer to every request.
type warmed struct {
	cells []campaign.Cell
	docs  [][]byte
	res   []platform.Result
	index map[string]int // cell key -> position
}

func loadWarmed(st *store.Store, spec campaign.Spec) (*warmed, error) {
	cells, err := spec.Expand(config.Default())
	if err != nil {
		return nil, err
	}
	w := &warmed{cells: cells, index: map[string]int{}}
	for i, c := range cells {
		doc, err := os.ReadFile(st.Path(c.Key))
		if err != nil {
			return nil, fmt.Errorf("set-up left no document for %s/%s@%g: %w", c.Kind, c.Mix.Name, c.Scale, err)
		}
		r, err := report.DecodeResult(doc)
		if err != nil {
			return nil, err
		}
		w.docs = append(w.docs, doc)
		w.res = append(w.res, r)
		w.index[c.Key] = i
	}
	return w, nil
}

// check accepts a served cell only if its result is the stored
// document of that cell, label aside.
func (w *warmed) check(cr campaign.CellResult) error {
	c := cr.Cell
	if cr.Err != nil {
		return fmt.Errorf("%s/%s@%g: %w", c.Kind, c.Mix.Name, c.Scale, cr.Err)
	}
	i, ok := w.index[c.Key]
	if !ok {
		return fmt.Errorf("%s/%s@%g is not a warmed cell", c.Kind, c.Mix.Name, c.Scale)
	}
	got := cr.Result
	got.Workload = w.res[i].Workload
	if !(got.IPC > 0) || !bytes.Equal(report.EncodeResult(got), report.EncodeResult(w.res[i])) {
		return fmt.Errorf("%s/%s@%g: result differs from the stored document", c.Kind, c.Mix.Name, c.Scale)
	}
	return nil
}

// timedRunner times each call into the runner it wraps.
type timedRunner struct {
	campaign.Runner
	mu    sync.Mutex
	latMS []float64 // guarded by mu
}

func (t *timedRunner) Run(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
	start := time.Now()
	r, err := t.Runner.Run(kind, mix, scale, cfg)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	t.mu.Lock()
	t.latMS = append(t.latMS, ms)
	t.mu.Unlock()
	return r, err
}

// latencies returns the durations of the calls so far, in
// milliseconds, in the order they returned.
func (t *timedRunner) latencies() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.latMS
}

// daemonMetrics is the part of zngd's /metrics document the harness
// reads.
type daemonMetrics struct {
	Sims       uint64 `json:"sims"`
	MemoryHits uint64 `json:"memory_hits"`
	DiskHits   uint64 `json:"disk_hits"`
	Latency    map[string]struct {
		Count uint64  `json:"count"`
		P50MS float64 `json:"p50_ms"`
	} `json:"latency"`
}

// traceStages reads the daemon's per-stage span breakdown, keyed by
// span name.
func traceStages(ctx context.Context, hc *http.Client, base string) (map[string]float64, error) {
	var doc struct {
		Stages []struct {
			Name  string  `json:"name"`
			P50MS float64 `json:"p50_ms"`
		} `json:"stages"`
	}
	if err := getJSON(ctx, hc, base+"/v1/trace/stats", &doc); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range doc.Stages {
		out[s.Name] = s.P50MS
	}
	return out, nil
}

// serveRun is one serve-sweep run's shared state.
type serveRun struct {
	o     options
	out   *outcome
	hc    *http.Client
	spec  campaign.Spec
	cache string // the warmed store
	w     *warmed
}

// cycle is one restart of the daemon over the warmed store, as the
// load phase sees it.
type cycle struct {
	latMS         []float64 // each cell of the disk sweep, then of the memory sweep
	diskMS, memMS float64   // each sweep's wall time
	cpu           time.Duration
	rssMiB        float64
	runMS, pollMS float64 // the daemon's p50s of POST /v1/run and GET /v1/jobs/{id}
	repolls       float64 // job polls beyond one per cell, per cell
	spans         map[string]float64
	cells, failed int
	errs          []error
}

// runCycle restarts zngd over the warmed store and replays the sweep
// twice through the campaign executor and the remote dispatcher, the
// code `zngsweep -peers` runs: each cell is one async POST /v1/run and
// polls of GET /v1/jobs/{id} until done. The restarted daemon holds no
// jobs, so the first sweep reads every cell from the store; the second
// is answered from the jobs the first left in memory.
func (s *serveRun) runCycle(ctx context.Context, traced bool) (cycle, error) {
	var c cycle
	d, err := startDaemon(ctx, s.o.zngd, filepath.Join(s.o.work, "serve"), s.cache, traced)
	if err != nil {
		return c, err
	}
	disp, err := remote.NewDispatcher([]string{d.base}, 0)
	if err != nil {
		d.stop()
		return c, err
	}
	tr := &timedRunner{Runner: disp}
	ex := campaign.Executor{Runner: tr, Workers: sweepWorkers}
	for sweep := range 2 {
		start := time.Now()
		res, err := ex.Execute(s.spec, config.Default())
		wall := float64(time.Since(start).Nanoseconds()) / 1e6
		if err != nil {
			d.stop()
			return c, err
		}
		if sweep == 0 {
			c.diskMS = wall
		} else {
			c.memMS = wall
		}
		for _, cr := range res.Cells {
			c.cells++
			if err := s.w.check(cr); err != nil {
				c.failed++
				if len(c.errs) < 5 {
					c.errs = append(c.errs, err)
				}
			}
		}
	}
	c.latMS = tr.latencies()

	var dm daemonMetrics
	err = getJSON(ctx, s.hc, d.base+"/metrics", &dm)
	if err == nil && traced {
		c.spans, err = traceStages(ctx, s.hc, d.base)
	}
	if err == nil {
		c.rssMiB, err = peakRSSMiB(strconv.Itoa(d.cmd.Process.Pid))
	}
	d.stop()
	if err != nil {
		return c, err
	}
	half := uint64(c.cells / 2)
	if dm.Sims != 0 || dm.DiskHits != half || dm.MemoryHits != half {
		return c, fmt.Errorf("daemon served %d cells from disk, %d from memory and simulated %d; want %d, %d and 0",
			dm.DiskHits, dm.MemoryHits, dm.Sims, half, half)
	}
	c.runMS = dm.Latency["POST /v1/run"].P50MS
	poll := dm.Latency["GET /v1/jobs/{id}"]
	c.pollMS = poll.P50MS
	c.repolls = (float64(poll.Count) - float64(c.cells)) / float64(c.cells)
	ps := d.cmd.ProcessState
	c.cpu = ps.UserTime() + ps.SystemTime()
	return c, nil
}

// load runs cycles while one more of median length fits in the
// phase's time, at least one, and times the reference computation
// after each. A cycle takes up to 2 s on a slow host, so running past
// the phase would stretch the run by as much.
func (s *serveRun) load(ctx context.Context, phase time.Duration, traced bool) []cycle {
	var cycles []cycle
	var took []float64 // seconds per cycle
	for start := time.Now(); len(cycles) == 0 || time.Since(start).Seconds()+median(took) <= phase.Seconds(); {
		if ctx.Err() != nil {
			s.out.fail(ctx.Err())
			break
		}
		t := time.Now()
		c, err := s.runCycle(ctx, traced)
		s.out.samples.addReference()
		took = append(took, time.Since(t).Seconds())
		s.out.attempted += max(c.cells, 1)
		s.out.failed += c.failed
		for _, e := range c.errs {
			s.out.errors = append(s.out.errors, e.Error())
		}
		if err != nil {
			s.out.fail(err)
			break
		}
		cycles = append(cycles, c)
	}
	return cycles
}

// opsPerS is cells served per second of sweep time, per cycle.
func opsPerS(cycles []cycle) []float64 {
	var out []float64
	for _, c := range cycles {
		out = append(out, float64(c.cells)/((c.diskMS+c.memMS)/1e3))
	}
	return out
}

// runServe is the serve-sweep workload. Set-up boots zngd on a fresh
// store and warms it with the grid as one campaign, setupBoots times
// in an untraced run (setup_s). The load phase then restarts the
// daemon over the last store, again and again, and replays the sweep
// twice per restart (runCycle). A traced run warms a traced daemon
// once, spends half its time on untraced cycles and half on traced
// ones, and adds the in-process timings of the serving layers' public
// calls.
func runServe(ctx context.Context, o options, out *outcome) error {
	if o.zngd == "" {
		return errors.New("serve-sweep needs -zngd, the path of a zngd binary")
	}
	s := &serveRun{o: o, out: out, hc: &http.Client{Timeout: 30 * time.Second}, spec: sweepSpec(o.seed, o.quick)}
	defer s.hc.CloseIdleConnections()
	m := out.samples

	boots := setupBoots
	if o.quick || o.trace {
		boots = 1
	}
	for b := range boots {
		dir := filepath.Join(o.work, fmt.Sprintf("setup-%d", b))
		s.cache = filepath.Join(dir, "cache")
		out.attempted++
		start := time.Now()
		d, err := startDaemon(ctx, o.zngd, dir, s.cache, o.trace)
		if err != nil {
			out.fail(err)
			return nil
		}
		err = warm(ctx, s.hc, d.base, s.spec)
		took := time.Since(start)
		var spans map[string]float64
		if err == nil && o.trace {
			spans, err = traceStages(ctx, s.hc, d.base)
		}
		d.stop()
		if err != nil {
			out.fail(err)
			return nil
		}
		m.add("setup_s", took.Seconds())
		m.add("campaign.cells_per_s", float64(campaignCells(s.spec))/took.Seconds())
		if o.trace {
			m.add("span.sim.p50_ms", spans["sim"])
			m.add("span.store_put.p50_ms", spans["store.put"])
		}
	}
	st, err := store.Open(s.cache)
	if err != nil {
		return err
	}
	if s.w, err = loadWarmed(st, s.spec); err != nil {
		out.fail(err)
		return nil
	}

	phase := o.seconds
	if o.trace {
		phase /= 2
	}
	if o.quick {
		phase = time.Second
	}
	cycles := s.load(ctx, phase, false)
	var memLat []float64
	for _, c := range cycles {
		m.add("latency_ms", c.latMS...)
		memLat = append(memLat, c.latMS[len(c.latMS)/2:]...)
		m.add("cpu_ms_per_op", float64(c.cpu.Nanoseconds())/1e6/float64(c.cells))
		m.add("peak_rss_mib", c.rssMiB)
		m.add("sweep.disk_ms", c.diskMS)
		m.add("sweep.memory_ms", c.memMS)
		m.add("api.run_p50_ms", c.runMS)
		m.add("api.poll_p50_ms", c.pollMS)
		m.add("remote.repoll_ratio", c.repolls)
	}
	m.add("ops_per_s", opsPerS(cycles)...)
	if lat := m["latency_ms"]; len(lat) > 0 {
		m.add("serve.p99_ms", percentile(lat, 99))
	}
	m.addRelative("latency_rel", "latency_ms")

	handlerUS, err := measureHandler(st, s.w, o, m)
	if err != nil {
		out.fail(err)
	}
	if !o.trace {
		return nil
	}
	if len(memLat) > 0 && len(handlerUS) > 0 {
		m.add("transport.self_us", 1000*median(memLat)-median(handlerUS))
	}
	timePublicCalls(st, s.w, o, m)

	traced := s.load(ctx, phase, true)
	for _, c := range traced {
		m.add("span.http.p50_ms", c.spans["http"])
		m.add("span.queue.p50_ms", c.spans["queue"])
		m.add("span.tier_disk.p50_ms", c.spans["tier.disk"])
	}
	if len(cycles) > 0 && len(traced) > 0 {
		m.add("trace.overhead_ratio", median(opsPerS(cycles))/median(opsPerS(traced)))
	}
	return nil
}

func campaignCells(spec campaign.Spec) int {
	return len(spec.Platforms) * len(spec.Scenarios) * len(spec.Scales)
}

// measureHandler serves the sweep through an in-process simsvc handler
// configured like the daemon, over the warmed store, with the two
// requests remote.Client makes per cell: an async POST /v1/run and, once
// the job is done, GET /v1/jobs/{id}. Each cycle is a fresh service
// that serves the sweep twice, first from disk and then from memory,
// like the daemon after a restart. allocs_per_op is the mallocs per
// cell of those calls; api.handler_us is the handler time per cell of
// the memory sweep, without a network.
func measureHandler(st *store.Store, w *warmed, o options, m samples) ([]float64, error) {
	cycles := handlerCycles
	if o.quick {
		cycles = 2
	}
	cfg := config.Default()
	body := make([][]byte, len(w.cells))
	for i, c := range w.cells {
		// The body remote.Client sends: the mix as an apps list, and the
		// cell's full configuration.
		b, err := json.Marshal(map[string]any{"platform": c.Kind.String(),
			"apps": strings.ReplaceAll(c.Mix.ID(), "+", ","), "scale": c.Scale, "async": true, "config": c.Cfg})
		if err != nil {
			return nil, err
		}
		body[i] = b
	}
	var handlerUS []float64
	for range cycles {
		svc := simsvc.New(simsvc.Config{Store: st, MaxJobs: daemonMaxJobs, CacheEntries: daemonMemCache})
		h := simsvc.NewHandler(svc, cfg)
		var mallocs uint64
		for sweep := range 2 {
			n, took, err := handlerSweep(h, svc, w, body)
			if err != nil {
				svc.Close()
				return nil, fmt.Errorf("in-process handler: %w", err)
			}
			mallocs += n
			if sweep == 1 {
				handlerUS = append(handlerUS, float64(took.Nanoseconds())/1e3/float64(len(body)))
			}
		}
		svc.Close()
		m.add("allocs_per_op", float64(mallocs)/float64(2*len(body)))
	}
	if o.trace {
		m.add("api.handler_us", handlerUS...)
	}
	return handlerUS, nil
}

// handlerSweep makes one pass of handler calls and returns their
// mallocs and time. Requests and recorders are built between the
// measured windows, so the counts are the handler's and the service's
// own.
func handlerSweep(h http.Handler, svc *simsvc.Service, w *warmed, body [][]byte) (uint64, time.Duration, error) {
	n := len(body)
	posts := make([]*http.Request, n)
	recs := make([]*httptest.ResponseRecorder, n)
	for i := range posts {
		posts[i] = httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body[i]))
		recs[i] = httptest.NewRecorder()
	}
	var m0, m1, m2, m3 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i, r := range posts {
		h.ServeHTTP(recs[i], r)
	}
	for svc.Load() > 0 {
		runtime.Gosched() // the workers read the store
	}
	took := time.Since(start)
	runtime.ReadMemStats(&m1)

	gets := make([]*http.Request, n)
	for i, rec := range recs {
		var reply struct {
			Job struct{ ID string } `json:"job"`
		}
		if rec.Code != http.StatusAccepted {
			return 0, 0, fmt.Errorf("POST /v1/run: status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			return 0, 0, err
		}
		gets[i] = httptest.NewRequest(http.MethodGet, "/v1/jobs/"+reply.Job.ID, nil)
		recs[i] = httptest.NewRecorder()
	}
	runtime.ReadMemStats(&m2)
	start = time.Now()
	for i, r := range gets {
		h.ServeHTTP(recs[i], r)
	}
	took += time.Since(start)
	runtime.ReadMemStats(&m3)

	for i, rec := range recs {
		var reply struct {
			Job struct {
				State string `json:"state"`
			} `json:"job"`
			Result json.RawMessage `json:"result"`
		}
		if rec.Code != http.StatusOK {
			return 0, 0, fmt.Errorf("GET /v1/jobs: status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			return 0, 0, err
		}
		r, err := report.DecodeResult(reply.Result)
		if reply.Job.State != "done" || err != nil {
			return 0, 0, fmt.Errorf("GET /v1/jobs: job %s, result %v", reply.Job.State, err)
		}
		if err := w.check(campaign.CellResult{Cell: w.cells[i], Result: r}); err != nil {
			return 0, 0, err
		}
	}
	return m1.Mallocs - m0.Mallocs + m3.Mallocs - m2.Mallocs, took, nil
}

// timePublicCalls times the serving layers' public functions over the
// warmed documents: each sample is one pass over every document,
// divided by the number of documents.
func timePublicCalls(st *store.Store, w *warmed, o options, m samples) {
	rounds := callRounds
	if o.quick {
		rounds = 3
	}
	n := len(w.cells)
	pass := func(name string, scale float64, fn func(c campaign.Cell, i int)) {
		runtime.GC()
		for range rounds {
			t := time.Now()
			for i, c := range w.cells {
				fn(c, i)
			}
			m.add(name, float64(time.Since(t).Nanoseconds())/float64(n)/scale)
		}
	}
	pass("cellkey.key_ns", 1, func(c campaign.Cell, _ int) { cellkey.Key(c.Kind, c.Mix.ID(), c.Scale, c.Cfg) })
	pass("store.get_us", 1e3, func(c campaign.Cell, _ int) { st.Get(c.Key) })
	pass("report.decode_us", 1e3, func(_ campaign.Cell, i int) { _, _ = report.DecodeResult(w.docs[i]) })
	pass("report.encode_us", 1e3, func(_ campaign.Cell, i int) { report.EncodeResult(w.res[i]) })

	tier := restier.NewTiered(n, st)
	for _, c := range w.cells {
		tier.Get(c.Key) // promote every document into memory
	}
	pass("restier.get_ns", 1, func(c campaign.Cell, _ int) { tier.Get(c.Key) })

	svc := simsvc.New(simsvc.Config{Store: st, CacheEntries: n})
	defer svc.Close()
	req := func(c campaign.Cell) simsvc.Request {
		return simsvc.Request{Kind: c.Kind, Mix: c.Mix, Scale: c.Scale, Cfg: c.Cfg}
	}
	for _, c := range w.cells {
		_, _ = svc.Do(req(c)) // every later call is a memory hit
	}
	pass("simsvc.do_us", 1e3, func(c campaign.Cell, _ int) { _, _ = svc.Do(req(c)) })
}
