// Package simsvc turns the simulator into a service: a job scheduler
// that fronts the persistent result store (internal/store) with a
// bounded worker pool, a FIFO-with-priority queue and cross-request
// coalescing, so that N concurrent requests for the same simulation
// cell cost exactly one simulation and a cell computed by any past
// process is served from disk without simulating at all.
//
// The service implements the campaign.Runner interface, so the
// figure drivers, the CLIs (-cache) and the zngd daemon all share
// this one code path; what used to be a process-wide memo global in
// internal/experiments is now an injectable runner. Request flow:
//
//	memory (completed cell)      -> MemoryHits
//	memory (LRU result tier)     -> MemoryHits (internal/restier; the
//	                                cell's job was evicted but its
//	                                document is still resident)
//	identical cell in flight     -> Coalesced (attach, no new job)
//	persistent store             -> DiskHits  (worker reads, then
//	                                           promotes into the tier)
//	otherwise                    -> Sims      (worker simulates, then
//	                                           writes through to disk
//	                                           and the tier)
//
// Admission is bounded: with Config.MaxQueue set, a request that
// would grow the pending queue past the bound fails fast with
// ErrOverloaded instead of queueing without limit — the HTTP layer
// maps it to 429 with a Retry-After estimate derived from recent
// per-simulation latency (RetryAfter). Requests that do not grow the
// queue — memory hits, tier hits, coalesced attaches — are always
// admitted.
//
// Every admitted cell is one Job with an observable lifecycle
// (queued, running, done, error) — the unit the zngd HTTP API
// (api.go) exposes.
//
// Retention is bounded: with Config.MaxJobs set, completed jobs past
// the bound are evicted oldest-first — done jobs only once their
// result is persisted in the store (an evicted cell re-serves from
// disk as a DiskHit), failed jobs unconditionally (a deterministic
// failure recomputes identically). Queued and running jobs are never
// evicted, and a memory-only service (no store) never evicts done
// results, so the memo contract degrades only where disk can back it
// up. Eviction counts surface as jobs_evicted in /metrics.
package simsvc

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"zng/internal/cellkey"
	"zng/internal/config"
	"zng/internal/experiments"
	"zng/internal/latency"
	"zng/internal/obs"
	"zng/internal/platform"
	"zng/internal/restier"
	"zng/internal/store"
	"zng/internal/workload"
)

// ErrClosed is returned for requests admitted after Close, and for
// jobs that were still queued when the service shut down.
var ErrClosed = errors.New("simsvc: service closed")

// ErrOverloaded is returned when admitting a request would grow the
// pending queue past Config.MaxQueue. The work was not admitted; the
// caller should retry after the backlog drains (the HTTP layer
// translates this to 429 with a Retry-After header).
var ErrOverloaded = errors.New("simsvc: service overloaded: pending queue is full")

// SimFunc computes one cell. The default is platform.RunMix, which
// returns a model panic as an error; a worker does not recover one.
// Tests inject stubs to pin scheduling behavior without paying for
// simulations.
type SimFunc func(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error)

// Config parameterizes a Service.
type Config struct {
	// Store is the persistent read-through/write-through layer; nil
	// runs memory-only (still coalescing, still counting).
	Store *store.Store
	// Workers bounds concurrent simulations (0 = NumCPU).
	Workers int
	// Simulate overrides the simulation function (nil = platform.RunMix).
	Simulate SimFunc
	// MaxJobs bounds retained completed jobs (0 = unbounded). Past the
	// bound, the oldest evictable jobs — done-and-persisted, or failed
	// — are dropped from memory; their cells re-serve from the store.
	MaxJobs int
	// CacheEntries sizes the in-memory LRU result tier
	// (internal/restier) fronting the store: cells whose jobs retention
	// evicted — and disk hits on re-serve — stay resident as decoded
	// documents, so the hot working set never pays the store's
	// read+decode cost. 0 disables the tier (the pre-tier behavior).
	CacheEntries int
	// MaxQueue bounds the pending-job queue (0 = unbounded): a request
	// that would queue a new simulation past the bound fails with
	// ErrOverloaded instead of growing the backlog without limit.
	// Memory hits, tier hits and coalesced attaches are always
	// admitted.
	MaxQueue int
	// Tracer, when set, records per-request spans (queue wait,
	// coalesce attach, tier lookups, simulation, store write-through)
	// for requests that carry a valid trace context. nil — or an
	// untraced request — costs the hot path nothing beyond a struct
	// comparison.
	Tracer *obs.Tracer
}

// State is a job's lifecycle phase.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateError   State = "error"
)

// Request identifies one simulation cell plus its scheduling
// priority. Higher priorities run first; equal priorities run in
// submission order.
type Request struct {
	Kind     platform.Kind
	Mix      workload.Mix
	Scale    float64
	Cfg      config.Config
	Priority int
	// Trace, when valid, parents the spans this request's lifecycle
	// records (the zero value means untraced — the sampled-out case —
	// and no clock is read on the request's behalf).
	Trace obs.SpanContext
}

// JobInfo is the externally visible snapshot of one job, shaped for
// the zngd JSON API.
type JobInfo struct {
	ID       string  `json:"id"`
	State    State   `json:"state"`
	Platform string  `json:"platform"`
	Workload string  `json:"workload"`
	MixID    string  `json:"mix"`
	Scale    float64 `json:"scale"`
	Priority int     `json:"priority"`
	// Waiters counts the extra requests that coalesced onto this job.
	Waiters int `json:"waiters"`
	// Source records how the job was satisfied: "sim", "disk" or
	// "memory" — the result tier — (empty until it finishes).
	Source string `json:"source,omitempty"`
	Error  string `json:"error,omitempty"`
}

// keyMemoBound caps the derived-key memo; past it the whole memo is
// flushed (keys simply rederive), which keeps it bounded without LRU
// bookkeeping.
const keyMemoBound = 4096

// keyID is the comparable tuple a cell key derives from. config.Config
// is a flat value type (no slices, maps or pointers) and mixes
// participate through their ID string, so the tuple is a valid map
// key and names exactly what cellkey.Key hashes.
type keyID struct {
	kind  platform.Kind
	mixID string
	scale float64
	cfg   config.Config
}

// job is one admitted cell. res and err are written exactly once,
// before done is closed, so readers that have observed the close may
// read them without the service lock.
type job struct {
	id      string
	seq     uint64
	idx     int // position in the pending heap; -1 once popped
	req     Request
	key     string
	state   State
	source  string
	waiters int
	done    chan struct{}
	res     platform.Result
	err     error
	// persisted records that the result is safely in the store (read
	// from it, or written through successfully), making the job
	// evictable: a future request re-serves the cell from disk.
	persisted bool
	// trace is the first traced submitter's span context — the parent
	// the job's worker-side spans (queue, tier, sim, store.put) record
	// under. Written at admission before the job is published, read
	// only by the worker that popped it.
	trace obs.SpanContext
	// enq is the admission instant feeding the queue-wait span; set
	// only when the job is traced.
	enq time.Time
}

func (j *job) info() JobInfo {
	info := JobInfo{
		ID:       j.id,
		State:    j.state,
		Platform: j.req.Kind.String(),
		Workload: j.req.Mix.Name,
		MixID:    j.req.Mix.ID(),
		Scale:    j.req.Scale,
		Priority: j.req.Priority,
		Waiters:  j.waiters,
		Source:   j.source,
	}
	if j.err != nil {
		info.Error = j.err.Error()
	}
	return info
}

// Service is the coalescing scheduler. Safe for concurrent use.
type Service struct {
	st       *store.Store
	tier     *restier.Tiered
	sim      SimFunc
	maxJobs  int
	maxQueue int
	workers  int
	// tr records request-lifecycle spans; nil disables tracing (every
	// obs call site is nil-safe and short-circuits).
	tr *obs.Tracer
	// simHist records wall-clock per-simulation latency (serving-layer
	// observability only — simulation results never depend on it). It
	// is internally atomic, so workers record without the service lock.
	simHist latency.Histogram

	mu     sync.Mutex
	cond   *sync.Cond              // queue became non-empty, or the service closed
	queue  jobQueue                // guarded by mu
	keys   map[keyID]string        // guarded by mu; memoized cell-key derivations (the hot path's SHA-256)
	cells  map[string]*job         // guarded by mu; cell key -> owning job (completed cells stay: the memory layer)
	jobs   map[string]*job         // guarded by mu; job id -> job
	order  []*job                  // guarded by mu; submission order, for listing
	nextID uint64                  // guarded by mu
	stats  experiments.RunnerStats // guarded by mu
	// rejected counts submissions refused with ErrOverloaded. guarded by mu.
	rejected uint64
	// simEWMA tracks recent per-simulation latency in nanoseconds
	// (exponentially weighted, α=0.2) — the Retry-After estimator.
	// guarded by mu.
	simEWMA float64
	// evictable counts retained jobs eligible for eviction, so a
	// memory-only service (where done jobs are never evictable) skips
	// the retention scan entirely instead of walking an ever-growing
	// order slice on every completion. guarded by mu.
	evictable int
	evicted   uint64 // guarded by mu
	// running counts jobs a worker has popped and not yet finished —
	// with the queue depth, the load figure a fleet worker heartbeats
	// to its coordinator. guarded by mu.
	running int
	closed  bool // guarded by mu
	wg      sync.WaitGroup
}

// New starts a service with cfg.Workers worker goroutines. Close it
// to drain.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.Simulate == nil {
		cfg.Simulate = platform.RunMix
	}
	s := &Service{
		st:       cfg.Store,
		tier:     restier.NewTiered(cfg.CacheEntries, cfg.Store),
		sim:      cfg.Simulate,
		maxJobs:  cfg.MaxJobs,
		maxQueue: cfg.MaxQueue,
		workers:  cfg.Workers,
		tr:       cfg.Tracer,
		keys:     map[keyID]string{},
		cells:    map[string]*job{},
		jobs:     map[string]*job{},
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// submit is the admission core: it returns the owning job itself, so
// internal callers keep a live reference that eviction cannot
// invalidate. served names the tier that satisfied THIS request when
// it was answered at admission time ("memory" for memo and tier hits)
// and is empty for coalesced attaches and fresh jobs — the job's own
// source says how the cell was originally computed, which is not the
// same thing (request-level serve attribution).
func (s *Service) submit(req Request) (*job, string, error) {
	id := keyID{kind: req.Kind, mixID: req.Mix.ID(), scale: req.Scale, cfg: req.Cfg}
	s.mu.Lock()
	defer s.mu.Unlock()
	key, ok := s.keys[id]
	if !ok {
		// The SHA-256 over the canonical config encoding costs more
		// than the rest of a hot-path hit put together, so derive it
		// outside the lock and memoize. A concurrent submitter may
		// rederive the same key; both write the identical value.
		s.mu.Unlock()
		derived := cellkey.Key(req.Kind, req.Mix.ID(), req.Scale, req.Cfg)
		s.mu.Lock()
		if len(s.keys) >= keyMemoBound {
			s.keys = make(map[keyID]string, keyMemoBound)
		}
		s.keys[id] = derived
		key = derived
	}
	if s.closed {
		return nil, "", ErrClosed
	}
	if j, ok := s.cells[key]; ok {
		select {
		case <-j.done:
			// The completed cell answered from memory, whatever tier
			// originally computed it.
			s.stats.MemoryHits++
			s.note(req, memTierName(j.err), j.err)
			return j, "memory", nil
		default:
			s.stats.Coalesced++
			j.waiters++
			s.note(req, "coalesce", nil)
			// A higher-priority attach promotes a still-queued job,
			// otherwise the new request would silently inherit the old
			// queue position — priority inversion.
			if j.state == StateQueued && req.Priority > j.req.Priority {
				j.req.Priority = req.Priority
				heap.Fix(&s.queue, j.idx)
			}
		}
		return j, "", nil
	}
	// The result tier can satisfy cells whose jobs retention evicted:
	// the job memo is gone but the decoded document (or its cached
	// deterministic failure) is still resident. Serve it as an
	// already-done job — no queue slot, no worker round-trip. GetMem
	// never touches the disk, so the lookup is safe under the service
	// lock.
	if r, negErr, ok := s.tier.GetMem(key); ok {
		s.stats.MemoryHits++
		s.note(req, memTierName(negErr), negErr)
		s.nextID++
		j := &job{
			id:     fmt.Sprintf("job-%d", s.nextID),
			seq:    s.nextID,
			idx:    -1,
			req:    req,
			key:    key,
			state:  StateDone,
			source: "memory",
			// With a store present the tier's residents came off disk or
			// were written through; even after a rare failed write-through
			// an eviction only costs a deterministic re-simulation.
			persisted: s.tier.Store() != nil,
			done:      make(chan struct{}),
			res:       r,
		}
		if negErr != nil {
			// A cached deterministic failure replays without burning a
			// worker on a simulation that fails identically every time.
			j.state = StateError
			j.err = negErr
			j.res = platform.Result{}
		}
		close(j.done)
		s.cells[key] = j
		s.jobs[j.id] = j
		s.order = append(s.order, j)
		if s.jobEvictable(j) {
			s.evictable++
		}
		s.evictLocked()
		return j, "memory", nil
	}
	if s.maxQueue > 0 && len(s.queue) >= s.maxQueue {
		s.rejected++
		return nil, "", ErrOverloaded
	}
	s.nextID++
	j := &job{
		id:    fmt.Sprintf("job-%d", s.nextID),
		seq:   s.nextID,
		req:   req,
		key:   key,
		state: StateQueued,
		done:  make(chan struct{}),
	}
	if s.tr != nil && req.Trace.Valid() {
		j.trace = req.Trace
		j.enq = time.Now()
	}
	s.cells[key] = j
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	heap.Push(&s.queue, j)
	s.cond.Signal()
	return j, "", nil
}

// Do is the synchronous request path: submit and wait. The result is
// the cell's one document whichever name asked for it (aliasing
// scenarios share a cell, and platform.RunMix labels its result with
// the mix's content ID). Do holds the job directly, so MaxJobs
// retention can never evict a result out from under a waiting caller.
func (s *Service) Do(req Request) (platform.Result, error) {
	res, _, err := s.DoJob(req)
	return res, err
}

// DoJob is Do plus the satisfied job's final snapshot, for callers
// (the HTTP sync path) that report job metadata alongside the result.
func (s *Service) DoJob(req Request) (platform.Result, JobInfo, error) {
	j, served, err := s.submit(req)
	if err != nil {
		return platform.Result{}, JobInfo{}, err
	}
	<-j.done
	s.mu.Lock()
	info := j.info()
	s.mu.Unlock()
	// Request-level attribution: a request answered at admission from
	// the memory layer reports the tier that served it, not the source
	// that originally computed the cell for some earlier request.
	if served != "" {
		info.Source = served
	}
	return j.res, info, j.err
}

// SubmitWait is DoJob for async callers: it admits req and waits up to
// d (d <= 0: not at all) for the job to finish, returning early when
// ctx ends. The snapshot's state says whether the job finished; it is
// taken from the held job, so retention cannot evict the outcome out
// from under the wait. Once the job is done the result is set; the
// error is the admission failure or, for a failed job, the job's own.
func (s *Service) SubmitWait(ctx context.Context, req Request, d time.Duration) (platform.Result, JobInfo, error) {
	j, served, err := s.submit(req)
	if err != nil {
		return platform.Result{}, JobInfo{}, err
	}
	waitDone(ctx, j.done, d)
	s.mu.Lock()
	info := j.info()
	s.mu.Unlock()
	if served != "" {
		info.Source = served
	}
	// res and err were published before the state the snapshot observed
	// (finish holds the lock for all three), so they may be read
	// lock-free once it says the job finished.
	switch info.State {
	case StateDone:
		return j.res, info, nil
	case StateError:
		return platform.Result{}, info, j.err
	}
	return platform.Result{}, info, nil
}

// Run implements campaign.Runner at default priority — the single
// code path the figure drivers, CLIs and daemon share.
func (s *Service) Run(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
	return s.Do(Request{Kind: kind, Mix: mix, Scale: scale, Cfg: cfg})
}

// RunTraced is Run with the caller's span context attached: the
// request's lifecycle (queue wait, coalesce, tier lookups,
// simulation, store write-through) records as spans parented under
// sc. It implements campaign.TracedRunner.
func (s *Service) RunTraced(sc obs.SpanContext, kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
	return s.Do(Request{Kind: kind, Mix: mix, Scale: scale, Cfg: cfg, Trace: sc})
}

// Tracer exposes the service's tracer (nil when tracing is off) so
// the HTTP layer shares one flight recorder with the scheduler.
func (s *Service) Tracer() *obs.Tracer { return s.tr }

// note records a zero-duration marker span — admission-time outcomes
// (memo hit, coalesce attach, memory-tier hit) that have no
// meaningful extent — for traced requests only. Untraced requests pay
// two comparisons. Called with mu held; the ring has its own brief
// lock and never calls back into the service.
func (s *Service) note(req Request, name string, err error) {
	if s.tr == nil || !req.Trace.Valid() {
		return
	}
	s.tr.Observe(req.Trace, name, "", time.Now(), 0, err)
}

// memTierName names a memory-layer answer's span: a cached
// deterministic failure reads as the negative tier.
func memTierName(err error) string {
	if err != nil {
		return "tier.negative"
	}
	return "tier.memory"
}

// JobResult snapshots one job by id and — when it is done — its
// result, after waiting up to d (d <= 0: not at all) for the job to
// finish, returning early when ctx ends. The id is resolved once, so a
// retention eviction between "observe done" and "read result", or
// during the wait, cannot lose the result (the HTTP poll endpoint's
// contract).
func (s *Service) JobResult(ctx context.Context, id string, d time.Duration) (JobInfo, platform.Result, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobInfo{}, platform.Result{}, false
	}
	waitDone(ctx, j.done, d)
	s.mu.Lock()
	info := j.info()
	s.mu.Unlock()
	if info.State != StateDone {
		return info, platform.Result{}, true
	}
	// res was published before state flipped to done (finish holds the
	// lock for both), so having observed done we may read it lock-free.
	return info, j.res, true
}

// waitDone is the one bounded wait, on a job or a campaign: it blocks
// until done is closed, d elapses or ctx ends, whichever comes first.
// With d <= 0, or done already closed, it returns at once and arms no
// timer.
func waitDone(ctx context.Context, done <-chan struct{}, d time.Duration) {
	if d <= 0 {
		return
	}
	select {
	case <-done:
		return
	default:
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
	case <-t.C:
	case <-ctx.Done():
	}
}

// Jobs snapshots every job in submission order.
func (s *Service) Jobs() []JobInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobInfo, len(s.order))
	for i, j := range s.order {
		out[i] = j.info()
	}
	return out
}

// Stats implements experiments.StatsReporter.
func (s *Service) Stats() experiments.RunnerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Store exposes the persistent layer (nil when memory-only).
func (s *Service) Store() *store.Store { return s.st }

// Close shuts the service down gracefully: new submissions are
// rejected, running simulations drain to completion (their results
// still land in the store), and jobs still queued fail with ErrClosed
// so their waiters unblock. Close returns once every worker has
// exited; it is idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for _, j := range s.queue {
			j.err = ErrClosed
			j.state = StateError
			s.evictable++
			close(j.done)
		}
		s.queue = nil
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// worker pops jobs in priority-then-FIFO order, satisfying each from
// the persistent store when possible and simulating otherwise.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		j := heap.Pop(&s.queue).(*job)
		j.state = StateRunning
		s.running++
		s.mu.Unlock()

		// Traced jobs record their lifecycle; untraced ones never read
		// the clock on tracing's behalf.
		traced := s.tr != nil && j.trace.Valid()
		var tierStart time.Time
		if traced {
			now := time.Now()
			s.tr.Observe(j.trace, "queue", "", j.enq, now.Sub(j.enq), nil)
			tierStart = now
		}
		if r, negErr, tier := s.tier.Get(j.key); tier != restier.TierNone {
			// A disk hit was promoted into the memory tier on the way
			// through; either way the result is already persisted. A
			// negative hit (a concurrent request cached the failure after
			// this job was admitted) replays the deterministic error —
			// failed jobs are evictable regardless of persistence.
			if traced {
				name := "tier." + tier.String()
				if negErr != nil {
					name = "tier.negative"
				}
				s.tr.Observe(j.trace, name, "", tierStart, time.Since(tierStart), negErr)
			}
			s.finish(j, r, negErr, tier.String(), negErr == nil, 0)
			continue
		}
		var simSpan *obs.Span
		if traced {
			s.tr.Observe(j.trace, "tier.miss", "", tierStart, time.Since(tierStart), nil)
			simSpan = s.tr.StartSpan(j.trace, "sim", j.req.Kind.String()+"/"+j.req.Mix.ID())
		}
		start := time.Now()
		r, err := s.sim(j.req.Kind, j.req.Mix, j.req.Scale, j.req.Cfg)
		simDur := time.Since(start)
		simSpan.EndErr(err)
		persisted := false
		if err == nil {
			// tier.Put writes the store first, then the memory tier. A
			// failed write-through only costs a future re-simulation; the
			// in-memory result this job now carries stays valid (but the
			// job is not evictable — disk could not back it up).
			var putStart time.Time
			if traced {
				putStart = time.Now()
			}
			persisted = s.tier.Put(j.key, r)
			if traced {
				s.tr.Observe(j.trace, "store.put", "", putStart, time.Since(putStart), nil)
			}
		} else {
			// Every error that reaches a worker is deterministic — the
			// simulator is a pure function of the cell, and
			// platform.RunMix returns a model panic as an error — so cache
			// it: repeat requests for the cell replay the failure from the
			// tier without a worker.
			s.tier.PutNegative(j.key, err.Error())
		}
		s.finish(j, r, err, "sim", persisted, simDur)
	}
}

// finish publishes a job's outcome, wakes its waiters, and evicts
// past the retention bound. simDur is the wall-clock simulation time
// (0 when the job was served from a tier) feeding the latency
// histogram and the Retry-After estimator.
func (s *Service) finish(j *job, r platform.Result, err error, source string, persisted bool, simDur time.Duration) {
	if simDur > 0 {
		s.simHist.Observe(simDur)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	j.res, j.err = r, err
	j.source = source
	j.persisted = persisted
	if err != nil {
		j.state = StateError
	} else {
		j.state = StateDone
	}
	if s.jobEvictable(j) {
		s.evictable++
	}
	switch source {
	case "memory":
		s.stats.MemoryHits++
	case "disk":
		s.stats.DiskHits++
	case "sim":
		s.stats.Sims++
		if simDur > 0 {
			if s.simEWMA == 0 {
				s.simEWMA = float64(simDur)
			} else {
				s.simEWMA = 0.8*s.simEWMA + 0.2*float64(simDur)
			}
		}
	}
	close(j.done)
	s.evictLocked()
}

// jobEvictable reports whether a job's in-memory copy is redundant: a
// done job whose result the store holds (the cell re-serves from
// disk), or a failed job (the deterministic failure recomputes).
func (s *Service) jobEvictable(j *job) bool {
	return (j.state == StateDone && j.persisted) || j.state == StateError
}

// evictLocked drops the oldest evictable jobs until at most maxJobs
// remain. Evictable means the job's in-memory copy is redundant: a
// done job whose result the store holds (the cell re-serves from
// disk), or a failed job (the deterministic failure recomputes).
// Queued, running, and done-but-unpersisted jobs always stay.
func (s *Service) evictLocked() {
	if s.maxJobs <= 0 || len(s.order) <= s.maxJobs || s.evictable == 0 {
		return
	}
	excess := len(s.order) - s.maxJobs
	keep := s.order[:0]
	for _, j := range s.order {
		if excess > 0 && s.jobEvictable(j) {
			delete(s.jobs, j.id)
			if s.cells[j.key] == j {
				delete(s.cells, j.key)
			}
			s.evictable--
			s.evicted++
			excess--
			continue
		}
		keep = append(keep, j)
	}
	// Zero the freed tail so evicted jobs do not linger reachable
	// through the backing array.
	for i := len(keep); i < len(s.order); i++ {
		s.order[i] = nil
	}
	s.order = keep
}

// EvictedJobs reports how many completed jobs retention has dropped
// from memory — the jobs_evicted gauge in /metrics.
func (s *Service) EvictedJobs() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// Load reports the service's current backlog — queued plus running
// jobs — the figure a fleet worker heartbeats to its coordinator. The
// coordinator only reports it, as each peer's "load" in GET /v1/fleet;
// dispatch balances on its own count of each peer's cells in flight.
func (s *Service) Load() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue) + s.running
}

// Rejected reports how many submissions admission control refused
// with ErrOverloaded — the jobs_rejected gauge in /metrics.
func (s *Service) Rejected() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rejected
}

// TierStats snapshots the memory result tier's counters (zero-valued
// when the tier is disabled) — the tier_* gauges in /metrics.
func (s *Service) TierStats() restier.CacheStats { return s.tier.CacheStats() }

// SimLatency summarizes recent per-simulation wall-clock latency —
// the latency.sim block in /metrics.
func (s *Service) SimLatency() latency.Snapshot { return s.simHist.Snapshot() }

// SimHistogram exposes the per-simulation latency histogram itself,
// so the Prometheus emitter renders real _bucket series instead of
// re-deriving them from a quantile snapshot.
func (s *Service) SimHistogram() *latency.Histogram { return &s.simHist }

// RetryAfter estimates how long an ErrOverloaded caller should back
// off before retrying: the recent per-simulation latency (EWMA) times
// the queue drain rounds ahead of a new arrival, clamped to [1s, 5m].
// Before any simulation has finished there is no estimate and the
// floor applies.
func (s *Service) RetryAfter() time.Duration {
	s.mu.Lock()
	est := time.Duration(s.simEWMA)
	depth := len(s.queue)
	s.mu.Unlock()
	const floor, ceiling = time.Second, 5 * time.Minute
	if est <= 0 {
		return floor
	}
	// ceil((depth+1)/workers) queue drain rounds before a retry can run.
	wait := est * time.Duration((depth+s.workers)/s.workers)
	if wait < floor {
		return floor
	}
	if wait > ceiling {
		return ceiling
	}
	return wait
}

// jobQueue is the pending-job heap: highest priority first, FIFO
// (submission sequence) within a priority.
type jobQueue []*job

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(a, b int) bool {
	if q[a].req.Priority != q[b].req.Priority {
		return q[a].req.Priority > q[b].req.Priority
	}
	return q[a].seq < q[b].seq
}
func (q jobQueue) Swap(a, b int) {
	q[a], q[b] = q[b], q[a]
	q[a].idx, q[b].idx = a, b
}
func (q *jobQueue) Push(x any) {
	j := x.(*job)
	j.idx = len(*q)
	*q = append(*q, j)
}
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	j := old[n-1]
	j.idx = -1
	old[n-1] = nil
	*q = old[:n-1]
	return j
}
