package simsvc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"time"

	"strings"

	"zng/internal/campaign"
	"zng/internal/config"
	"zng/internal/fleet"
	"zng/internal/latency"
	"zng/internal/obs"
	"zng/internal/platform"
	"zng/internal/remote"
	"zng/internal/report"
	"zng/internal/wire"
	"zng/internal/workload"
)

// runResponse is the reply about one run or job: POST /v1/run's 202
// and 200, and GET /v1/jobs/{id}. writeRun writes it.
type runResponse struct {
	Job JobInfo
	// Result is the report.EncodeResult document, nil on async
	// submissions and failures.
	Result []byte
	// Spans piggybacks this process's span subtree for a traced request
	// (X-Zng-Trace present) once the job completes, so the caller's
	// flight recorder reconstructs the cross-process tree.
	Spans []obs.Record
}

// scenarioInfo is one GET /v1/scenarios row.
type scenarioInfo struct {
	Name   string `json:"name"`
	MixID  string `json:"mix"`
	Degree int    `json:"degree"`
}

// HandlerOption customizes NewHandler.
type HandlerOption func(*handlerOpts)

type handlerOpts struct {
	fleet *fleet.Coordinator
}

// WithFleet serves campaigns and the /v1/fleet endpoints through the
// given coordinator instead of one NewHandler builds over the service.
func WithFleet(fc *fleet.Coordinator) HandlerOption {
	return func(o *handlerOpts) { o.fleet = fc }
}

// NewHandler builds the zngd HTTP JSON API over one service. cfg is
// the base simulation configuration requests run under (the daemon
// passes Table I defaults); requests choose platform, workload, scale
// and priority, and may carry a full config of their own.
//
//	POST /v1/run             run (or enqueue) one simulation cell; ?wait=D on an async run
//	GET  /v1/jobs            list jobs in submission order
//	GET  /v1/jobs/{id}       one job's status; ?wait=D long-polls it
//	POST /v1/campaigns       start a declarative sweep (202 + campaign id)
//	GET  /v1/campaigns       list campaigns with live progress
//	GET  /v1/campaigns/{id}  one campaign's progress (+ matrix once done); ?wait=D long-polls it
//	POST /v1/campaigns/{id}/resume  resume a store-checkpointed campaign
//	POST /v1/fleet/register  join a worker to this coordinator's fleet
//	POST /v1/fleet/heartbeat refresh a worker's liveness and load
//	GET  /v1/fleet           live peer roster + fleet gauges
//	GET  /v1/scenarios       the workload scenario registry
//	GET  /v1/platforms       the platform vocabulary
//	GET  /v1/trace           flight-recorder trace summaries (filterable)
//	GET  /v1/trace/stats     per-stage latency breakdown over recorded spans
//	GET  /v1/trace/{id}      one trace's full span tree
//	GET  /healthz            liveness
//	GET  /metrics            counters (JSON, or Prometheus text with ?format=prom)
//
// ?wait=D (a Go duration such as 500ms or 2s, clamped to MaxWait)
// holds the reply until the job or campaign finishes, D elapses or
// the client goes away, so a caller learns of completion in the
// round trip that sees it instead of sleeping between polls. An async
// POST /v1/run whose job finishes within the wait replies 200 with
// what a done-job poll carries — the result document, and a traced
// caller's span subtree — and 202 with the job otherwise; the GETs
// reply as they do without a wait. A request without wait takes the
// immediate path; a malformed or negative wait, or one on a sync
// run, is a 400. A sync run waits the same way with no deadline: it
// stops when its client goes away, and the job runs on.
//
// Every reply — success, validation failure, unknown path, wrong
// method — is a JSON document; errors are {"error": ...} with the
// matching status code, so clients never have to parse a text/plain
// fallback.
//
// When the service's admission bound rejects a run (ErrOverloaded),
// the reply is 429 Too Many Requests with a Retry-After header (whole
// seconds) estimated from recent per-simulation latency and the
// current queue depth — a well-behaved client backs off that long and
// retries. Every endpoint's wall-clock latency feeds a fixed-bucket
// histogram surfaced as p50/p95/p99 under "latency" in /metrics.
//
// The handler is always a fleet coordinator: campaigns run through
// its durable manager (content-addressed ids, checkpoints in the
// service's store, POST /v1/campaigns/{id}/resume), workers join via
// POST /v1/fleet/register + /v1/fleet/heartbeat, and GET /v1/fleet
// reports the live roster. Without WithFleet it builds the coordinator
// over svc, its store and its tracer, with cfg as the campaign base.
func NewHandler(svc *Service, cfg config.Config, opts ...HandlerOption) http.Handler {
	var ho handlerOpts
	for _, o := range opts {
		o(&ho)
	}
	// The service's tracer (nil when the daemon runs untraced): run
	// requests join the caller's trace via X-Zng-Trace or root a
	// sampled one. Campaigns root theirs through the coordinator's
	// tracer (the daemon wires the same instance into both).
	tr := svc.Tracer()
	fc := ho.fleet
	if fc == nil {
		fc = fleet.New(fleet.Config{Local: svc, Store: svc.Store(), Base: cfg, Tracer: tr})
	}
	mgr := fc.Campaigns()
	mux := http.NewServeMux()

	// Per-endpoint latency histograms. The map is fully populated
	// before NewHandler returns and read-only afterwards, so the
	// metrics handler may range it without a lock (the histograms
	// themselves are internally atomic).
	hists := map[string]*latency.Histogram{}
	timed := func(pattern string, h http.HandlerFunc) {
		hist := &latency.Histogram{}
		hists[pattern] = hist
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			h(w, r)
			hist.Observe(time.Since(start))
		})
	}

	timed("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		wait, err := parseWait(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		body, err := readBody(w, r)
		if err != nil {
			writeBodyErr(w, "reading request", err)
			return
		}
		// Pre-seed the config target with the base configuration: a
		// request's "config" object decodes over it, so unspecified
		// fields inherit the base rather than zeroing, and an absent
		// "config" leaves the seed (= the base) in place. Either way
		// req.Config is the effective cell configuration afterwards.
		seeded := cfg
		req := remote.RunRequest{Config: &seeded}
		if err := req.DecodeJSON(body); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
			return
		}
		if req.Config == nil { // an explicit "config": null
			req.Config = &seeded
		}
		// A config the model cannot run is the caller's error, not a
		// simulator fault: refuse it before any job exists.
		if err := req.Config.Validate(); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if wait > 0 && !req.Async {
			writeErr(w, http.StatusBadRequest, errors.New(`"wait" applies to async runs only; a sync run already waits for its result`))
			return
		}
		kind, err := platform.KindByName(req.Platform)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		var mix workload.Mix
		switch {
		case req.Apps != "" && req.Mix != "":
			writeErr(w, http.StatusBadRequest, errors.New(`"mix" and "apps" are mutually exclusive`))
			return
		case req.Apps != "":
			mix, err = workload.ParseApps(req.Apps)
		case req.Mix != "":
			mix, err = workload.MixByName(req.Mix)
		default:
			err = errors.New(`one of "mix" or "apps" is required`)
		}
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		scale := req.Scale
		if scale == 0 {
			scale = workload.DefaultScale
		}
		if err := mix.CheckScale(scale); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		// One ingress span per accepted run: join the propagated trace
		// when X-Zng-Trace carries one (a coordinator's peer span),
		// otherwise root a sampled local trace. The span ends before any
		// reply is written, so a traced submitter's very first poll
		// already finds it in the flight recorder.
		headerCtx, hasHeader := obs.DecodeContext(r.Header.Get(obs.Header))
		var span *obs.Span
		if hasHeader {
			span = tr.StartSpan(headerCtx, "http", "POST /v1/run")
		} else {
			span = tr.SampledRoot("http", "POST /v1/run")
		}
		request := Request{Kind: kind, Mix: mix, Scale: scale, Cfg: *req.Config, Priority: req.Priority, Trace: span.Context()}
		// A sync run waits for its job with no deadline, an async one up
		// to ?wait=D (0: not at all), and either stops when its client
		// leaves; the job runs on. SubmitWait holds the job across the
		// wait, so a retention eviction between completion and reply
		// cannot lose the result.
		d := wait
		if !req.Async {
			d = forever
		}
		res, job, err := svc.SubmitWait(r.Context(), request, d)
		if errors.Is(err, ErrOverloaded) {
			span.SetCode(http.StatusTooManyRequests)
			span.EndErr(err)
			writeOverloaded(w, svc, err)
			return
		}
		if err != nil && job.ID == "" {
			// Beyond overload, only shutdown refuses a well-formed
			// submission.
			span.SetCode(http.StatusServiceUnavailable)
			span.EndErr(err)
			writeErr(w, http.StatusServiceUnavailable, err)
			return
		}
		// An unfinished job (an async wait ran out, or a sync run's
		// client left) is answered with the job, as an async run without
		// a wait always is.
		if !finished(job.State) || (req.Async && wait == 0) {
			span.SetCode(http.StatusAccepted)
			span.End()
			writeRun(w, http.StatusAccepted, runResponse{Job: job})
			return
		}
		if !req.Async && err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, ErrClosed) {
				status = http.StatusServiceUnavailable
			}
			span.SetCode(status)
			span.EndErr(err)
			writeJSON(w, status, struct {
				Error string  `json:"error"`
				Job   JobInfo `json:"job"`
			}{err.Error(), job})
			return
		}
		// A sync run's result, or an async job that finished within the
		// wait, answered as a done-job poll is. The span ends first, so
		// the caller's subtree includes it.
		span.SetCode(http.StatusOK)
		span.End()
		writeRun(w, http.StatusOK, jobReply(tr, r, job, res))
	})

	timed("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Jobs []JobInfo `json:"jobs"`
		}{svc.Jobs()})
	})

	timed("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		wait, err := parseWait(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		id := r.PathValue("id")
		// A completed job carries its result, so an async submitter can
		// poll this endpoint to done and collect the document in one
		// round trip. JobResult snapshots status and result from the
		// one job it resolved, so retention eviction between the two
		// (or during the wait) cannot reply "done" without the document.
		// The document is the cell's, whichever alias asked; the job's
		// "workload" names the scenario of the request that admitted it.
		job, res, ok := svc.JobResult(r.Context(), id, wait)
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
			return
		}
		writeRun(w, http.StatusOK, jobReply(tr, r, job, res))
	})

	timed("POST /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		var spec campaign.Spec
		if err := decodeBody(w, r, &spec); err != nil {
			writeBodyErr(w, "decoding campaign spec", err)
			return
		}
		c, err := mgr.Start(spec)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusAccepted, struct {
			Campaign CampaignInfo `json:"campaign"`
		}{campaignStatus(c)})
	})

	timed("GET /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		list := mgr.List()
		out := make([]CampaignInfo, len(list))
		for i, c := range list {
			out[i] = campaignStatus(c)
		}
		writeJSON(w, http.StatusOK, struct {
			Campaigns []CampaignInfo `json:"campaigns"`
		}{out})
	})

	timed("GET /v1/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		wait, err := parseWait(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		id := r.PathValue("id")
		c, ok := mgr.Get(id)
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", id))
			return
		}
		waitDone(r.Context(), c.Finished(), wait)
		detail := CampaignDetail{CampaignInfo: campaignStatus(c)}
		// A finished campaign carries the folded result matrix (the
		// same table zngsweep prints) and any per-cell failures, so
		// one poll-to-done loop collects everything.
		if out := c.Outcome(); out != nil {
			detail.Table = report.JSON(out.Table())
			for _, cr := range out.Cells {
				if cr.Err != nil {
					detail.Errors = append(detail.Errors, CampaignCellError{
						Platform: cr.Cell.Kind.String(),
						Scenario: cr.Cell.Mix.Name,
						Scale:    cr.Cell.Scale,
						Config:   cr.Cell.Override.Label(),
						Error:    cr.Err.Error(),
					})
				}
			}
		}
		writeJSON(w, http.StatusOK, detail)
	})

	timed("POST /v1/campaigns/{id}/resume", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		c, err := mgr.Resume(id)
		if errors.Is(err, os.ErrNotExist) {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no checkpoint for campaign %q", id))
			return
		}
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusAccepted, struct {
			Campaign CampaignInfo `json:"campaign"`
		}{campaignStatus(c)})
	})

	timed("POST /v1/fleet/register", func(w http.ResponseWriter, r *http.Request) {
		var req fleet.RegisterRequest
		if err := decodeBody(w, r, &req); err != nil {
			writeBodyErr(w, "decoding register request", err)
			return
		}
		peer, err := fc.Register(req.Addr)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, fleet.RegisterReply{
			Peer:        peer,
			HeartbeatMS: fleet.HeartbeatInterval(fc.TTL()).Milliseconds(),
		})
	})

	timed("POST /v1/fleet/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req fleet.HeartbeatRequest
		if err := decodeBody(w, r, &req); err != nil {
			writeBodyErr(w, "decoding heartbeat", err)
			return
		}
		if err := fc.Heartbeat(req.ID, req.Load); err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, fleet.ErrUnknownPeer) {
				// Expired or never registered: 404 tells the agent to
				// re-register rather than keep beating a dead id.
				status = http.StatusNotFound
			}
			writeErr(w, status, err)
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Status string `json:"status"`
		}{"ok"})
	})

	timed("GET /v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		peers := fc.Peers()
		sort.Slice(peers, func(i, j int) bool { return peers[i].Addr < peers[j].Addr })
		writeJSON(w, http.StatusOK, struct {
			Peers  []fleet.Peer `json:"peers"`
			Gauges fleet.Gauges `json:"gauges"`
		}{peers, fc.Gauges()})
	})

	timed("GET /v1/scenarios", func(w http.ResponseWriter, r *http.Request) {
		scenarios := workload.Scenarios()
		out := make([]scenarioInfo, len(scenarios))
		for i, m := range scenarios {
			out[i] = scenarioInfo{Name: m.Name, MixID: m.ID(), Degree: m.Degree()}
		}
		writeJSON(w, http.StatusOK, struct {
			Scenarios []scenarioInfo `json:"scenarios"`
		}{out})
	})

	timed("GET /v1/platforms", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Platforms []string `json:"platforms"`
		}{platform.KindNames()})
	})

	timed("GET /v1/trace", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		var minUS int64
		if s := q.Get("min_ms"); s != "" {
			ms, err := strconv.ParseFloat(s, 64)
			if err != nil || ms < 0 {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("bad min_ms %q", s))
				return
			}
			minUS = int64(ms * 1000)
		}
		status := 0
		if s := q.Get("status"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("bad status %q", s))
				return
			}
			status = n
		}
		endpoint := q.Get("endpoint")
		out := []obs.Summary{}
		for _, sum := range tr.Summaries() {
			if endpoint != "" && !strings.Contains(sum.Detail, endpoint) {
				continue
			}
			if status != 0 && sum.Code != status {
				continue
			}
			if sum.DurUS < minUS {
				continue
			}
			out = append(out, sum)
		}
		total, dropped := tr.RingStats()
		writeJSON(w, http.StatusOK, struct {
			Traces       []obs.Summary `json:"traces"`
			SpansTotal   uint64        `json:"spans_total"`
			SpansDropped uint64        `json:"spans_dropped"`
		}{out, total, dropped})
	})

	timed("GET /v1/trace/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Stages []obs.StageStat `json:"stages"`
		}{tr.Stages()})
	})

	timed("GET /v1/trace/{id}", func(w http.ResponseWriter, r *http.Request) {
		raw := r.PathValue("id")
		id, ok := obs.ParseID(raw)
		if !ok {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad trace id %q (want 16 hex digits)", raw))
			return
		}
		// The full tree, worker spans included (they were ingested when
		// the dispatcher's job replies piggybacked them), sorted by start.
		recs := tr.Trace(id)
		if len(recs) == 0 {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no spans recorded for trace %s", id))
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Trace obs.ID       `json:"trace"`
			Spans []obs.Record `json:"spans"`
		}{id, recs})
	})

	timed("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Status string `json:"status"`
		}{"ok"})
	})

	timed("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if wantProm(r) {
			writeProm(w, svc, fc, hists)
			return
		}
		writeJSON(w, http.StatusOK, metrics(svc, fc, hists))
	})

	// Unmatched paths fall through to "/": a structured 404 instead of
	// the ServeMux's text/plain page. Method mismatches on known paths
	// land on the method-less patterns below (the method-bearing ones
	// above are more specific and win their verb), yielding a
	// structured 405 with the Allow header intact.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such endpoint %s", r.URL.Path))
	})
	for pattern, allow := range map[string]string{
		"/v1/run":                   "POST",
		"/v1/jobs":                  "GET",
		"/v1/jobs/{id}":             "GET",
		"/v1/campaigns":             "GET, POST",
		"/v1/campaigns/{id}":        "GET",
		"/v1/campaigns/{id}/resume": "POST",
		"/v1/fleet":                 "GET",
		"/v1/fleet/register":        "POST",
		"/v1/fleet/heartbeat":       "POST",
		"/v1/scenarios":             "GET",
		"/v1/platforms":             "GET",
		"/v1/trace":                 "GET",
		// No method-less "/v1/trace/stats": it would out-specialize
		// "GET /v1/trace/{id}" across methods and ServeMux rejects the
		// pair; wrong-method stats requests land on the {id} fallback.
		"/v1/trace/{id}": "GET",
		"/healthz":       "GET",
		"/metrics":       "GET",
	} {
		allow := allow
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Allow", allow)
			writeErr(w, http.StatusMethodNotAllowed,
				fmt.Errorf("method %s not allowed on %s (allow: %s)", r.Method, r.URL.Path, allow))
		})
	}

	return mux
}

// MaxWait caps the ?wait=D long poll. It stays below
// remote.DefaultTimeout, so a client with the default timeout always
// gets the reply before it gives up on the request.
const MaxWait = 20 * time.Second

// parseWait reads the optional ?wait=D bound, clamped to MaxWait; 0
// means no wait. The query is parsed only when there is one: r.URL.Query
// allocates, and a request without a wait must not pay for it.
func parseWait(r *http.Request) (time.Duration, error) {
	if r.URL.RawQuery == "" {
		return 0, nil
	}
	s := r.URL.Query().Get("wait")
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad wait %q (want a non-negative duration such as 500ms or 2s)", s)
	}
	return min(d, MaxWait), nil
}

// MaxBodyBytes caps every request body. A POST /v1/run body with a
// full configuration takes about 2 KB.
const MaxBodyBytes = 1 << 20

// readBody reads the request body whole, or fails with an
// *http.MaxBytesError once it passes MaxBodyBytes: at once when the
// Content-Length says so, else when the reader does.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.ContentLength > MaxBodyBytes {
		return nil, &http.MaxBytesError{Limit: MaxBodyBytes}
	}
	return wire.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes), r.ContentLength)
}

// decodeBody decodes the request body into v with encoding/json,
// rejecting unknown fields, or fails with an *http.MaxBytesError once
// the body passes MaxBodyBytes.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// writeBodyErr answers a request whose body could not be read or
// decoded: 413 when it is over MaxBodyBytes, else 400.
func writeBodyErr(w http.ResponseWriter, what string, err error) {
	status := http.StatusBadRequest
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeErr(w, status, fmt.Errorf("%s: %w", what, err))
}

// finished reports whether a job has reached a terminal state.
func finished(st State) bool { return st == StateDone || st == StateError }

// jobReply is the reply about one job: its snapshot, the result
// document once it is done, and — for a traced caller (X-Zng-Trace)
// once it has finished — this process's span subtree under the
// caller's span, the worker half of a cross-process trace. Polls
// themselves are not spanned; the header only scopes the subtree.
func jobReply(tr *obs.Tracer, r *http.Request, job JobInfo, res platform.Result) runResponse {
	resp := runResponse{Job: job}
	if job.State == StateDone {
		resp.Result = report.EncodeResult(res)
	}
	if finished(job.State) {
		if sc, ok := obs.DecodeContext(r.Header.Get(obs.Header)); ok {
			resp.Spans = tr.Subtree(sc)
		}
	}
	return resp
}

// CampaignInfo is the campaign status envelope shared by the list,
// detail and start replies. zngsweep -coordinator decodes the replies
// into it and CampaignDetail.
type CampaignInfo struct {
	ID       string            `json:"id"`
	Name     string            `json:"name,omitempty"`
	State    string            `json:"state"` // "running" or "done"
	Progress campaign.Progress `json:"progress"`
	// Trace is the campaign's root trace id, resolvable at
	// GET /v1/trace/{id} while the flight recorder retains it. Absent
	// on untraced daemons.
	Trace string `json:"trace,omitempty"`
}

// CampaignDetail extends the status with the finished campaign's
// result matrix and per-cell failures.
type CampaignDetail struct {
	CampaignInfo
	Errors []CampaignCellError `json:"errors,omitempty"`
	Table  json.RawMessage     `json:"table,omitempty"`
}

// CampaignCellError locates one failed cell in the grid.
type CampaignCellError struct {
	Platform string  `json:"platform"`
	Scenario string  `json:"scenario"`
	Scale    float64 `json:"scale"`
	Config   string  `json:"config"`
	Error    string  `json:"error"`
}

func campaignStatus(c *campaign.Campaign) CampaignInfo {
	state := "running"
	if c.Done() {
		state = "done"
	}
	info := CampaignInfo{ID: c.ID, Name: c.Spec.Name, State: state, Progress: c.Progress()}
	if t := c.Trace(); t != 0 {
		info.Trace = t.String()
	}
	return info
}

// metricsDoc is the /metrics document: the runner counters plus job,
// store and result-tier gauges, flat like an expvar page so scrapers
// stay simple — except "latency", a map of p50/p95/p99 summaries per
// endpoint (plus "sim", the per-simulation latency feeding the
// Retry-After estimator).
type metricsDoc struct {
	Sims          uint64 `json:"sims"`
	MemoryHits    uint64 `json:"memory_hits"`
	DiskHits      uint64 `json:"disk_hits"`
	Coalesced     uint64 `json:"coalesced"`
	JobsTotal     int    `json:"jobs_total"`
	JobsQueued    int    `json:"jobs_queued"`
	JobsRunning   int    `json:"jobs_running"`
	JobsDone      int    `json:"jobs_done"`
	JobsError     int    `json:"jobs_error"`
	JobsEvicted   uint64 `json:"jobs_evicted"`
	JobsRejected  uint64 `json:"jobs_rejected"`
	StoreEntries  int    `json:"store_entries"`
	TierEntries   int    `json:"tier_entries"`
	TierCapacity  int    `json:"tier_capacity"`
	TierHits      uint64 `json:"tier_hits"`
	TierMisses    uint64 `json:"tier_misses"`
	TierEvictions uint64 `json:"tier_evictions"`
	TierNegatives int    `json:"tier_negatives"`

	Fleet fleet.Gauges `json:"fleet"`

	Latency map[string]latency.Snapshot `json:"latency,omitempty"`
}

func metrics(svc *Service, fc *fleet.Coordinator, hists map[string]*latency.Histogram) metricsDoc {
	st := svc.Stats()
	tier := svc.TierStats()
	doc := metricsDoc{
		Sims:          st.Sims,
		MemoryHits:    st.MemoryHits,
		DiskHits:      st.DiskHits,
		Coalesced:     st.Coalesced,
		JobsEvicted:   svc.EvictedJobs(),
		JobsRejected:  svc.Rejected(),
		TierEntries:   tier.Entries,
		TierCapacity:  tier.Capacity,
		TierHits:      tier.Hits,
		TierMisses:    tier.Misses,
		TierEvictions: tier.Evictions,
		TierNegatives: tier.Negatives,
		Fleet:         fc.Gauges(),
		Latency:       map[string]latency.Snapshot{"sim": svc.SimLatency()},
	}
	for pattern, h := range hists {
		if s := h.Snapshot(); s.Count > 0 {
			doc.Latency[pattern] = s
		}
	}
	for _, j := range svc.Jobs() {
		doc.JobsTotal++
		switch j.State {
		case StateQueued:
			doc.JobsQueued++
		case StateRunning:
			doc.JobsRunning++
		case StateDone:
			doc.JobsDone++
		case StateError:
			doc.JobsError++
		}
	}
	if s := svc.Store(); s != nil {
		if n, err := s.Entries(); err == nil {
			doc.StoreEntries = n
		}
	}
	return doc
}

// wantProm reports whether the scraper asked for Prometheus text
// exposition: ?format=prom, or an Accept header naming text/plain or
// openmetrics (Prometheus sends both). Plain curl and the JSON
// clients send Accept: */* and keep the JSON document.
func wantProm(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prom" {
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

// writeProm renders the metrics document in Prometheus text
// exposition format 0.0.4: every counter and gauge as a zng_* series,
// plus full histograms (_bucket/_sum/_count, in seconds) for the
// per-simulation latency and every HTTP endpoint.
func writeProm(w http.ResponseWriter, svc *Service, fc *fleet.Coordinator, hists map[string]*latency.Histogram) {
	doc := metrics(svc, fc, hists)
	var p obs.Prom
	p.Counter("zng_sims_total", "Simulations executed.", float64(doc.Sims))
	p.Counter("zng_memory_hits_total", "Requests served from the memory result tier.", float64(doc.MemoryHits))
	p.Counter("zng_disk_hits_total", "Requests served from the disk store.", float64(doc.DiskHits))
	p.Counter("zng_coalesced_total", "Requests coalesced onto an identical in-flight cell.", float64(doc.Coalesced))
	for _, s := range []struct {
		state string
		n     int
	}{
		{"queued", doc.JobsQueued},
		{"running", doc.JobsRunning},
		{"done", doc.JobsDone},
		{"error", doc.JobsError},
	} {
		p.Gauge("zng_jobs", "Jobs in the retention window by state.",
			float64(s.n), obs.Label{Name: "state", Value: s.state})
	}
	p.Counter("zng_jobs_evicted_total", "Finished jobs evicted by retention.", float64(doc.JobsEvicted))
	p.Counter("zng_jobs_rejected_total", "Submissions rejected by admission control.", float64(doc.JobsRejected))
	p.Gauge("zng_store_entries", "Results in the disk store.", float64(doc.StoreEntries))
	p.Gauge("zng_tier_entries", "Results in the memory tier.", float64(doc.TierEntries))
	p.Gauge("zng_tier_capacity", "Memory tier capacity.", float64(doc.TierCapacity))
	p.Counter("zng_tier_hits_total", "Memory tier hits.", float64(doc.TierHits))
	p.Counter("zng_tier_misses_total", "Memory tier misses.", float64(doc.TierMisses))
	p.Counter("zng_tier_evictions_total", "Memory tier LRU evictions.", float64(doc.TierEvictions))
	p.Gauge("zng_tier_negatives", "Negative (deterministic-failure) entries in the memory tier.", float64(doc.TierNegatives))
	p.Gauge("zng_fleet_peers_live", "Registered, un-expired workers.", float64(doc.Fleet.PeersLive))
	p.Counter("zng_fleet_peers_dead_total", "Heartbeat expiries since start.", float64(doc.Fleet.PeersDead))
	p.Counter("zng_fleet_cells_reassigned_total", "Cells rerouted after a peer fault.", float64(doc.Fleet.CellsReassigned))
	p.Counter("zng_fleet_campaigns_resumed_total", "Campaigns started with their spec already checkpointed in the store.", float64(doc.Fleet.CampaignsResumed))
	if tr := svc.Tracer(); tr != nil {
		total, dropped := tr.RingStats()
		p.Counter("zng_trace_spans_total", "Spans recorded by the flight recorder.", float64(total))
		p.Counter("zng_trace_spans_dropped_total", "Spans overwritten before being read.", float64(dropped))
	}
	p.Histogram("zng_sim_duration_seconds", "Wall-clock per executed simulation.", svc.SimHistogram())
	endpoints := make([]string, 0, len(hists))
	for pattern := range hists {
		endpoints = append(endpoints, pattern)
	}
	sort.Strings(endpoints)
	for _, pattern := range endpoints {
		p.Histogram("zng_http_request_duration_seconds", "Wall-clock per HTTP request.",
			hists[pattern], obs.Label{Name: "endpoint", Value: pattern})
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(p.Bytes())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The status line is gone; an encoding failure can only be a dead
	// client, which has already stopped caring.
	_ = enc.Encode(v)
}

// writeRun writes resp as writeJSON would write the object {"job": ...,
// "result": ..., "spans": ...}, byte for byte, "result" and "spans"
// only when present. The result document is copied in one indent
// deeper, which is all re-encoding it would change: its newlines are
// all structural, since JSON strings escape theirs.
func writeRun(w http.ResponseWriter, status int, resp runResponse) {
	job, err := json.MarshalIndent(resp.Job, "  ", "  ")
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	var spans []byte
	if len(resp.Spans) > 0 {
		if spans, err = json.MarshalIndent(resp.Spans, "  ", "  "); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
	}
	doc := bytes.TrimSuffix(resp.Result, []byte{'\n'})
	b := make([]byte, 0, 48+len(job)+len(doc)+2*bytes.Count(doc, []byte{'\n'})+len(spans))
	b = append(b, "{\n  \"job\": "...)
	b = append(b, job...)
	if len(doc) > 0 {
		b = append(b, ",\n  \"result\": "...)
		for {
			i := bytes.IndexByte(doc, '\n')
			if i < 0 {
				break
			}
			b = append(b, doc[:i+1]...)
			b = append(b, "  "...)
			doc = doc[i+1:]
		}
		b = append(b, doc...)
	}
	if len(spans) > 0 {
		b = append(b, ",\n  \"spans\": "...)
		b = append(b, spans...)
	}
	b = append(b, "\n}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	// The status line is gone; a failed write can only be a dead
	// client.
	_, _ = w.Write(b)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{err.Error()})
}

// writeOverloaded maps ErrOverloaded to 429 Too Many Requests with a
// Retry-After header (whole seconds, minimum 1 — the header's
// granularity) from the service's backlog-drain estimate.
func writeOverloaded(w http.ResponseWriter, svc *Service, err error) {
	secs := int(math.Ceil(svc.RetryAfter().Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeErr(w, http.StatusTooManyRequests, err)
}
