// Package obs is the serving stack's cross-process observability
// layer: trace/span identifiers minted at request ingress (the zngd
// HTTP handler, the zngsweep CLI, the campaign executor) and
// propagated over HTTP via the X-Zng-Trace header, a bounded
// flight-recorder ring buffer the completed spans land in (ring.go),
// per-stage latency summaries derived from it (stages.go), a
// Prometheus text-exposition builder for /metrics (prom.go) and the
// daemon's structured-logging setup (log.go).
//
// Everything here observes wall-clock time, which is exactly why the
// package sits outside the deterministic simulation core: znglint's
// determinism analyzer lists internal/obs as a sanctioned time sink
// that the core packages must not import. Spans wrap the service and
// transport layers only — simulation results never depend on them.
//
// Every Tracer and Span method is safe on a nil receiver and a nil
// *Span, so an untraced hot path pays only a pointer test: a request
// sampled out at ingress carries an invalid SpanContext, every
// derived span is nil, and no clock is read on its behalf.
package obs

import (
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"time"
)

// Header is the HTTP header that carries a span context between
// processes: "X-Zng-Trace: <trace>-<span>", both ids as 16 hex
// digits. The receiving daemon parents its spans under the carried
// span, so one campaign cell's lifecycle reads as a single tree even
// when the cell hops workers after a reassignment.
const Header = "X-Zng-Trace"

// ID is a 64-bit trace or span identifier, rendered as 16 hex digits
// in headers and JSON (a JSON number would lose precision past 2^53
// in JavaScript consumers).
type ID uint64

// String renders the id as 16 lowercase hex digits.
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// MarshalJSON renders the id as a quoted hex string.
func (id ID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + id.String() + `"`), nil
}

// UnmarshalJSON accepts the quoted hex form.
func (id *ID) UnmarshalJSON(b []byte) error {
	s, err := strconv.Unquote(string(b))
	if err != nil {
		return fmt.Errorf("obs: id %s: %w", b, err)
	}
	v, ok := ParseID(s)
	if !ok {
		return fmt.Errorf("obs: malformed id %q", s)
	}
	*id = v
	return nil
}

// ParseID parses the 16-hex-digit id form.
func ParseID(s string) (ID, bool) {
	if len(s) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, false
	}
	return ID(v), true
}

// SpanContext names a position in a trace: the trace id plus the
// current span id new child spans parent under. The zero value is
// invalid and means "not traced".
type SpanContext struct {
	Trace ID `json:"trace"`
	Span  ID `json:"span"`
}

// Valid reports whether the context names a real trace position.
func (c SpanContext) Valid() bool { return c.Trace != 0 && c.Span != 0 }

// Encode renders the header value form, "<trace>-<span>".
func (c SpanContext) Encode() string {
	return c.Trace.String() + "-" + c.Span.String()
}

// DecodeContext parses the header value form; malformed or absent
// values decode as invalid, never as an error — an untraced request
// is the normal case, not a fault.
func DecodeContext(s string) (SpanContext, bool) {
	if len(s) != 33 || s[16] != '-' {
		return SpanContext{}, false
	}
	tr, ok1 := ParseID(s[:16])
	sp, ok2 := ParseID(s[17:])
	if !ok1 || !ok2 {
		return SpanContext{}, false
	}
	c := SpanContext{Trace: tr, Span: sp}
	return c, c.Valid()
}

// Record is one completed span — the serializable form that lands in
// the flight recorder, travels piggybacked on worker replies, and
// renders under /v1/trace.
type Record struct {
	Trace  ID `json:"trace"`
	Span   ID `json:"span"`
	Parent ID `json:"parent,omitempty"`
	// Name is the span kind: "http", "campaign", "cell", "dispatch",
	// "peer", "queue", "coalesce", "tier.memory", "tier.disk",
	// "tier.negative", "sim", "store.put", "store.write", ...
	Name string `json:"name"`
	// Detail refines the name: the HTTP pattern, the peer address,
	// the cell coordinates.
	Detail string `json:"detail,omitempty"`
	// Proc labels the process that recorded the span, so a
	// cross-process tree shows which side each span ran on.
	Proc string `json:"proc,omitempty"`
	// Code is the HTTP status for http spans (0 elsewhere).
	Code int    `json:"code,omitempty"`
	Err  string `json:"err,omitempty"`
	// StartUS is the span's start as microseconds since the Unix
	// epoch; DurUS its duration in microseconds.
	StartUS int64 `json:"start_us"`
	DurUS   int64 `json:"dur_us"`
}

// DefaultCapacity sizes the flight recorder when the caller passes 0.
const DefaultCapacity = 4096

// Tracer mints ids, applies ingress sampling, and owns the flight
// recorder. A nil Tracer is valid and records nothing. Safe for
// concurrent use.
type Tracer struct {
	ring   *Ring
	sample uint64
	// proc is the process label stamped on every locally recorded
	// span; SetProc replaces it (atomically — the daemon learns its
	// final listen address after construction).
	proc atomic.Pointer[string]
	// idstate is the splitmix64 generator state behind ID minting —
	// seeded from the clock and pid, never math/rand, so the
	// deterministic core's no-rand rule has nothing to object to.
	idstate atomic.Uint64
	// roots counts sampling decisions at SampledRoot.
	roots atomic.Uint64
}

// New builds a tracer: proc labels this process's spans, capacity
// bounds the flight recorder (0 = DefaultCapacity), and sample keeps
// 1-in-N sampled roots (<= 1 keeps all; StartRoot ignores sampling
// either way).
func New(proc string, capacity, sample int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if sample <= 0 {
		sample = 1
	}
	t := &Tracer{ring: NewRing(capacity), sample: uint64(sample)}
	t.proc.Store(&proc)
	t.idstate.Store(uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<47)
	return t
}

// SetProc replaces the process label (the daemon calls it once the
// listener reports the bound address).
func (t *Tracer) SetProc(proc string) {
	if t == nil {
		return
	}
	t.proc.Store(&proc)
}

// Proc reports the current process label ("" on a nil tracer).
func (t *Tracer) Proc() string {
	if t == nil {
		return ""
	}
	return *t.proc.Load()
}

// newID draws the next id from the splitmix64 stream. Never zero —
// zero means "no id" everywhere else.
func (t *Tracer) newID() ID {
	x := t.idstate.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return ID(x)
}

// Span is one in-flight span handle. All methods are nil-safe: the
// nil *Span an untraced path holds costs a single pointer test.
type Span struct {
	t      *Tracer
	ctx    SpanContext
	parent ID
	name   string
	detail string
	code   int
	start  time.Time
}

// StartRoot begins a new trace unconditionally — campaign roots and
// CLI ingress, where the caller explicitly asked for the trace.
func (t *Tracer) StartRoot(name, detail string) *Span {
	if t == nil {
		return nil
	}
	return t.begin(SpanContext{Trace: t.newID()}, name, detail)
}

// SampledRoot begins a new trace for 1 in every sample ingress
// requests (nil for the rest) — the per-request HTTP ingress path,
// where tracing everything under load would be all cost.
func (t *Tracer) SampledRoot(name, detail string) *Span {
	if t == nil {
		return nil
	}
	if n := t.roots.Add(1); (n-1)%t.sample != 0 {
		return nil
	}
	return t.StartRoot(name, detail)
}

// StartSpan begins a child span under parent; an invalid parent (the
// sampled-out case) yields nil without reading the clock.
func (t *Tracer) StartSpan(parent SpanContext, name, detail string) *Span {
	if t == nil || !parent.Valid() {
		return nil
	}
	return t.begin(parent, name, detail)
}

func (t *Tracer) begin(parent SpanContext, name, detail string) *Span {
	return &Span{
		t:      t,
		ctx:    SpanContext{Trace: parent.Trace, Span: t.newID()},
		parent: parent.Span,
		name:   name,
		detail: detail,
		start:  time.Now(),
	}
}

// Context names the span's position for propagation (zero on nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.ctx
}

// SetDetail replaces the span's detail label.
func (s *Span) SetDetail(detail string) {
	if s != nil {
		s.detail = detail
	}
}

// SetCode records an HTTP status on the span.
func (s *Span) SetCode(code int) {
	if s != nil {
		s.code = code
	}
}

// End completes the span successfully and lands it in the recorder.
func (s *Span) End() { s.EndErr(nil) }

// EndErr completes the span, recording err's text when non-nil.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	rec := Record{
		Trace:   s.ctx.Trace,
		Span:    s.ctx.Span,
		Parent:  s.parent,
		Name:    s.name,
		Detail:  s.detail,
		Proc:    s.t.Proc(),
		Code:    s.code,
		StartUS: s.start.UnixMicro(),
		DurUS:   time.Since(s.start).Microseconds(),
	}
	if err != nil {
		rec.Err = err.Error()
	}
	s.t.ring.Add(rec)
}

// Observe records a span whose bounds the caller measured itself —
// the queue-wait span, whose start is the enqueue instant — without
// ever holding a live handle. Invalid parents record nothing.
func (t *Tracer) Observe(parent SpanContext, name, detail string, start time.Time, d time.Duration, err error) {
	if t == nil || !parent.Valid() {
		return
	}
	rec := Record{
		Trace:   parent.Trace,
		Span:    t.newID(),
		Parent:  parent.Span,
		Name:    name,
		Detail:  detail,
		Proc:    t.Proc(),
		StartUS: start.UnixMicro(),
		DurUS:   d.Microseconds(),
	}
	if err != nil {
		rec.Err = err.Error()
	}
	t.ring.Add(rec)
}

// Ingest lands records produced by another process — worker spans
// piggybacked on job replies — in this recorder, keeping their Proc
// labels. Records without valid ids are dropped.
func (t *Tracer) Ingest(recs []Record) {
	if t == nil {
		return
	}
	for _, r := range recs {
		if r.Trace == 0 || r.Span == 0 {
			continue
		}
		t.ring.Add(r)
	}
}

// Records snapshots the flight recorder, oldest first.
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	return t.ring.Snapshot()
}

// RingStats reports how many spans the recorder has accepted in total
// and how many the bound has overwritten.
func (t *Tracer) RingStats() (total, dropped uint64) {
	if t == nil {
		return 0, 0
	}
	return t.ring.Stats()
}

// Trace returns every recorded span of one trace, parents-first
// within the limits of start ordering (StartUS, then span id, so the
// order is stable across processes).
func (t *Tracer) Trace(id ID) []Record {
	if t == nil || id == 0 {
		return nil
	}
	var out []Record
	for _, r := range t.ring.Snapshot() {
		if r.Trace == id {
			out = append(out, r)
		}
	}
	sortRecords(out)
	return out
}

// Subtree returns the spans of ctx's trace that are ctx.Span or its
// descendants — the slice of the tree one worker-side request chain
// produced, which is exactly what a job reply piggybacks back to the
// coordinator (spans of the same trace's other cells stay home, so
// ingestion never duplicates them).
func (t *Tracer) Subtree(ctx SpanContext) []Record {
	if t == nil || !ctx.Valid() {
		return nil
	}
	all := t.Trace(ctx.Trace)
	in := map[ID]bool{ctx.Span: true}
	var out []Record
	// Records sort by start time, so a child follows its parent and
	// one forward pass closes the descendant set.
	for _, r := range all {
		if in[r.Span] || in[r.Parent] {
			in[r.Span] = true
			out = append(out, r)
		}
	}
	return out
}

// sortRecords orders spans by start, then span id — a stable, process
// -independent tree ordering.
func sortRecords(recs []Record) {
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && less(recs[j], recs[j-1]); j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
}

func less(a, b Record) bool {
	if a.StartUS != b.StartUS {
		return a.StartUS < b.StartUS
	}
	return a.Span < b.Span
}

// Summary is one trace's one-line digest — the GET /v1/trace row.
type Summary struct {
	Trace ID `json:"trace"`
	// Name/Detail/Proc/Code/Err come from the trace's root span (the
	// earliest recorded span when the root itself was evicted or lives
	// in another process's recorder).
	Name    string `json:"name"`
	Detail  string `json:"detail,omitempty"`
	Proc    string `json:"proc,omitempty"`
	Code    int    `json:"code,omitempty"`
	Err     string `json:"err,omitempty"`
	StartUS int64  `json:"start_us"`
	// DurUS spans the earliest start to the latest end recorded.
	DurUS int64 `json:"dur_us"`
	Spans int   `json:"spans"`
}

// Summaries digests the recorder one row per trace, newest first.
func (t *Tracer) Summaries() []Summary {
	if t == nil {
		return nil
	}
	type agg struct {
		s      Summary
		rooted bool  // a Parent==0 span labeled the row
		end    int64 // latest observed span end (StartUS+DurUS)
	}
	byTrace := map[ID]*agg{}
	var order []ID
	for _, r := range t.ring.Snapshot() {
		a := byTrace[r.Trace]
		if a == nil {
			a = &agg{s: Summary{Trace: r.Trace, StartUS: r.StartUS}}
			byTrace[r.Trace] = a
			order = append(order, r.Trace)
		}
		a.s.Spans++
		if r.StartUS < a.s.StartUS {
			a.s.StartUS = r.StartUS
		}
		if end := r.StartUS + r.DurUS; end > a.end {
			a.end = end
		}
		// The root span labels the row; with no root recorded (it was
		// evicted, or lives in another process), the first span stands
		// in until one shows up.
		if r.Parent == 0 || !a.rooted && a.s.Name == "" {
			a.s.Name, a.s.Detail, a.s.Proc, a.s.Code, a.s.Err = r.Name, r.Detail, r.Proc, r.Code, r.Err
			a.rooted = a.rooted || r.Parent == 0
		}
	}
	out := make([]Summary, 0, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		a := byTrace[order[i]]
		a.s.DurUS = a.end - a.s.StartUS
		out = append(out, a.s)
	}
	return out
}
