package campaign

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"zng/internal/config"
	"zng/internal/obs"
	"zng/internal/platform"
	"zng/internal/stats"
	"zng/internal/workload"
)

// TracedRunner is the optional traced execution surface a Runner may
// additionally implement (simsvc.Service, remote.Dispatcher,
// fleet.Coordinator do): Run with the caller's span context attached,
// so the cell's downstream lifecycle — dispatch pick, peer round
// trip, queue wait, tier lookups, simulation — records under the
// campaign's trace. The executor type-asserts for it per cell; plain
// Runners (test stubs) still work untraced.
type TracedRunner interface {
	RunTraced(sc obs.SpanContext, kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error)
}

// Executor drives expanded cells through a Runner with bounded
// concurrency. The zero value is not usable: a Runner is required.
// Individual simulations stay single-threaded and deterministic;
// Workers only bounds how many cells are in flight, and a
// deduplicating runner (simsvc, coordinator) still coalesces
// identical cells submitted concurrently. Each cell runs once and its
// error is final: a simulation error is deterministic, a local service
// refusing work at shutdown or past its queue bound refuses an
// immediate retry too, and peer faults never reach the executor,
// because the fleet coordinator re-routes them to another peer or runs
// the cell itself.
type Executor struct {
	// Runner answers cells; required.
	Runner Runner
	// Workers bounds concurrent in-flight cells (0 = NumCPU).
	Workers int
	// Tracer, when set, roots one trace per campaign (unsampled — the
	// caller asked for this sweep) with a child span per cell, and
	// passes each cell's context to the Runner when it implements
	// TracedRunner. nil runs untraced.
	Tracer *obs.Tracer
}

func (e Executor) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.NumCPU()
}

// Progress is a live snapshot of one executing campaign.
type Progress struct {
	// Total is the cell count of the expanded grid.
	Total int `json:"total"`
	// Done counts cells that finished successfully.
	Done int `json:"done"`
	// Failed counts cells that errored.
	Failed int `json:"failed"`
}

// Finished reports whether every cell has resolved.
func (p Progress) Finished() bool { return p.Done+p.Failed == p.Total }

// CellResult is one cell's outcome.
type CellResult struct {
	Cell   Cell
	Result platform.Result
	Err    error
}

// Outcome is a completed campaign: every cell in expansion order,
// with partial failure recorded per cell instead of aborting the
// grid — a 1000-cell sweep with one deadlocked configuration still
// reports the other 999.
type Outcome struct {
	Spec  Spec
	Cells []CellResult
}

// Failed counts the cells that errored.
func (o *Outcome) Failed() int {
	n := 0
	for _, c := range o.Cells {
		if c.Err != nil {
			n++
		}
	}
	return n
}

// Err summarizes partial failure: nil when every cell succeeded,
// otherwise an error naming the failure count and the first failing
// cell (Cell.String).
func (o *Outcome) Err() error {
	for _, c := range o.Cells {
		if c.Err != nil {
			return fmt.Errorf("campaign: %d of %d cells failed (first: %s: %v)",
				o.Failed(), len(o.Cells), c.Cell, c.Err)
		}
	}
	return nil
}

// Table folds the outcome into the report-compatible matrix: one row
// per (override, scale, scenario), one IPC column per platform, in
// expansion order. The override and scale columns appear only when
// that axis has more than one value, so a plain platform × scenario
// campaign reads like a Fig. 10 row block. Failed cells render as
// ERROR — the partial matrix is still a document.
func (o *Outcome) Table() *stats.Table {
	title := o.Spec.Name
	if title == "" {
		title = "campaign"
	}
	multiOv := len(o.Spec.Overrides) > 1
	multiSc := len(o.Spec.Scales) > 1
	header := []string{"scenario"}
	if multiSc {
		header = append(header, "scale")
	}
	if multiOv {
		header = append(header, "config")
	}
	header = append(header, o.Spec.Platforms...)
	t := stats.NewTable(title, header...)

	// Cells arrive platform-innermost, so each run of len(Platforms)
	// results is one table row.
	for at := 0; at+len(o.Spec.Platforms) <= len(o.Cells); at += len(o.Spec.Platforms) {
		first := o.Cells[at]
		row := []any{first.Cell.Mix.Name}
		if multiSc {
			row = append(row, stats.FormatFloat(first.Cell.Scale))
		}
		if multiOv {
			row = append(row, first.Cell.Override.Label())
		}
		for i := 0; i < len(o.Spec.Platforms); i++ {
			cr := o.Cells[at+i]
			if cr.Err != nil {
				row = append(row, "ERROR")
			} else {
				row = append(row, cr.Result.IPC)
			}
		}
		t.AddRow(row...)
	}
	return t
}

// Campaign is one managed campaign: its id, the spec it was started
// from, and the executing Run (Progress, Done, Finished, Outcome,
// Wait, Cells, Trace).
type Campaign struct {
	ID   string
	Spec Spec
	*Run
}

// Run is one executing campaign: a handle to poll while the grid
// drains and to wait on for the outcome.
type Run struct {
	spec  Spec
	cells []Cell
	// trace is the campaign's root trace id (0 when untraced) — the
	// handle /v1/trace/{id} reconstructs the span tree under.
	trace obs.ID

	total  int
	done   atomic.Int64
	failed atomic.Int64

	finished chan struct{}
	outcome  *Outcome
}

// Trace reports the campaign's root trace id (0 when the executor ran
// untraced).
func (r *Run) Trace() obs.ID { return r.trace }

// Start expands the spec against the base configuration and launches
// every cell through the executor's runner. It returns immediately;
// poll Progress or block on Wait. Expansion errors (unknown platform
// or scenario, bad scale, invalid override) fail fast before any
// simulation starts.
func (e Executor) Start(spec Spec, base config.Config) (*Run, error) {
	if e.Runner == nil {
		return nil, fmt.Errorf("campaign: executor has no runner")
	}
	cells, err := spec.Expand(base)
	if err != nil {
		return nil, err
	}
	// The Table fold reads the axis lengths off the spec, so pin the
	// defaults Expand applied.
	if len(spec.Scales) == 0 {
		spec.Scales = []float64{1}
	}
	if len(spec.Overrides) == 0 {
		spec.Overrides = []Override{{}}
	}
	r := &Run{
		spec:     spec,
		cells:    cells,
		total:    len(cells),
		finished: make(chan struct{}),
	}
	// The campaign root span begins before Start returns, so the API
	// layer can hand the trace id back in the 202 reply while cells
	// are still in flight.
	var root *obs.Span
	if e.Tracer != nil {
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("%d cells", len(cells))
		}
		root = e.Tracer.StartRoot("campaign", name)
		r.trace = root.Context().Trace
	}
	go r.execute(e, root)
	return r, nil
}

// Execute is the synchronous convenience: Start then Wait.
func (e Executor) Execute(spec Spec, base config.Config) (*Outcome, error) {
	run, err := e.Start(spec, base)
	if err != nil {
		return nil, err
	}
	return run.Wait(), nil
}

func (r *Run) execute(e Executor, root *obs.Span) {
	results := make([]CellResult, len(r.cells))
	sem := make(chan struct{}, e.workers())
	rootCtx := root.Context()
	traced, _ := e.Runner.(TracedRunner)
	var wg sync.WaitGroup
	for i, c := range r.cells {
		i, c := i, c
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			// One span per cell; the runner's own spans (dispatch,
			// peer, queue, sim) nest under it.
			cell := e.Tracer.StartSpan(rootCtx, "cell", c.String())
			cr := CellResult{Cell: c}
			if sc := cell.Context(); sc.Valid() && traced != nil {
				cr.Result, cr.Err = traced.RunTraced(sc, c.Kind, c.Mix, c.Scale, c.Cfg)
			} else {
				cr.Result, cr.Err = e.Runner.Run(c.Kind, c.Mix, c.Scale, c.Cfg)
			}
			cell.EndErr(cr.Err)
			results[i] = cr
			if cr.Err != nil {
				r.failed.Add(1)
			} else {
				r.done.Add(1)
			}
		}()
	}
	wg.Wait()
	r.outcome = &Outcome{Spec: r.spec, Cells: results}
	root.EndErr(r.outcome.Err())
	close(r.finished)
}

// Progress snapshots the live counters.
func (r *Run) Progress() Progress {
	return Progress{
		Total:  r.total,
		Done:   int(r.done.Load()),
		Failed: int(r.failed.Load()),
	}
}

// Cells returns the expanded grid (expansion order).
func (r *Run) Cells() []Cell { return r.cells }

// Finished returns a channel closed once every cell has resolved, for
// callers that wait on the campaign with a bound of their own.
func (r *Run) Finished() <-chan struct{} { return r.finished }

// Done reports whether the campaign has finished without blocking.
func (r *Run) Done() bool {
	select {
	case <-r.finished:
		return true
	default:
		return false
	}
}

// Wait blocks until every cell resolves and returns the outcome.
func (r *Run) Wait() *Outcome {
	<-r.finished
	return r.outcome
}

// Outcome returns the completed outcome, or nil while cells are still
// in flight.
func (r *Run) Outcome() *Outcome {
	if !r.Done() {
		return nil
	}
	return r.outcome
}
