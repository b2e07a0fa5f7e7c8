package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestIDCodec(t *testing.T) {
	id := ID(0xdeadbeef01020304)
	if got, want := id.String(), "deadbeef01020304"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	back, ok := ParseID(id.String())
	if !ok || back != id {
		t.Fatalf("ParseID round trip = %v/%v", back, ok)
	}
	b, err := json.Marshal(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"deadbeef01020304"` {
		t.Fatalf("MarshalJSON = %s", b)
	}
	var dec ID
	if err := json.Unmarshal(b, &dec); err != nil || dec != id {
		t.Fatalf("UnmarshalJSON = %v, %v", dec, err)
	}
	for _, bad := range []string{"", "short", "deadbeef0102030", "deadbeef010203045", "zzadbeef01020304"} {
		if _, ok := ParseID(bad); ok {
			t.Fatalf("ParseID(%q) accepted", bad)
		}
	}
}

func TestContextCodec(t *testing.T) {
	c := SpanContext{Trace: 0x0102030405060708, Span: 0x1112131415161718}
	enc := c.Encode()
	if len(enc) != 33 {
		t.Fatalf("Encode length = %d, want 33 (%q)", len(enc), enc)
	}
	back, ok := DecodeContext(enc)
	if !ok || back != c {
		t.Fatalf("DecodeContext(%q) = %+v/%v", enc, back, ok)
	}
	for _, bad := range []string{
		"",
		"0102030405060708",
		"0102030405060708_1112131415161718",
		"0102030405060708-111213141516171",
		"0000000000000000-1112131415161718", // zero trace id is invalid
	} {
		if _, ok := DecodeContext(bad); ok {
			t.Fatalf("DecodeContext(%q) accepted", bad)
		}
	}
}

// FuzzDecodeContext: an X-Zng-Trace value DecodeContext accepts names
// a valid context and is that context's Encode() up to hex case, and
// every valid context decodes from its own encoding.
func FuzzDecodeContext(f *testing.F) {
	f.Fuzz(func(t *testing.T, header string, trace, span uint64) {
		if c, ok := DecodeContext(header); ok {
			if !c.Valid() {
				t.Fatalf("DecodeContext(%q) accepted invalid %+v", header, c)
			}
			if !strings.EqualFold(c.Encode(), header) {
				t.Fatalf("DecodeContext(%q) = %+v, which encodes as %q", header, c, c.Encode())
			}
		}
		c := SpanContext{Trace: ID(trace), Span: ID(span)}
		if back, ok := DecodeContext(c.Encode()); ok != c.Valid() || ok && back != c {
			t.Fatalf("%+v encodes as %q, which decodes as %+v/%v", c, c.Encode(), back, ok)
		}
	})
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if s := tr.StartRoot("x", ""); s != nil {
		t.Fatal("nil tracer minted a root span")
	}
	if s := tr.SampledRoot("x", ""); s != nil {
		t.Fatal("nil tracer minted a sampled root")
	}
	tr.Observe(SpanContext{Trace: 1, Span: 1}, "x", "", time.Now(), 0, nil)
	tr.Ingest([]Record{{Trace: 1, Span: 1}})
	if recs := tr.Records(); recs != nil {
		t.Fatal("nil tracer returned records")
	}
	tr.SetProc("p")
	if got := tr.Proc(); got != "" {
		t.Fatalf("nil tracer proc = %q", got)
	}
	var s *Span
	s.SetDetail("d")
	s.SetCode(200)
	s.End()
	s.EndErr(errors.New("x"))
	if c := s.Context(); c.Valid() {
		t.Fatal("nil span has a valid context")
	}
}

func TestSpanTreeAndTrace(t *testing.T) {
	tr := New("proc-a", 64, 1)
	root := tr.StartRoot("campaign", "test")
	rc := root.Context()
	if !rc.Valid() {
		t.Fatal("root context invalid")
	}
	child := tr.StartSpan(rc, "cell", "ZnG/x@1")
	grand := tr.StartSpan(child.Context(), "sim", "")
	grand.EndErr(errors.New("boom"))
	child.End()
	root.End()

	recs := tr.Trace(rc.Trace)
	if len(recs) != 3 {
		t.Fatalf("Trace returned %d spans, want 3", len(recs))
	}
	byName := map[string]Record{}
	for _, r := range recs {
		if r.Trace != rc.Trace {
			t.Fatalf("span %s carries trace %v, want %v", r.Name, r.Trace, rc.Trace)
		}
		if r.Proc != "proc-a" {
			t.Fatalf("span %s proc = %q", r.Name, r.Proc)
		}
		byName[r.Name] = r
	}
	if byName["campaign"].Parent != 0 {
		t.Fatal("root span has a parent")
	}
	if byName["cell"].Parent != byName["campaign"].Span {
		t.Fatal("cell does not parent under campaign")
	}
	if byName["sim"].Parent != byName["cell"].Span {
		t.Fatal("sim does not parent under cell")
	}
	if byName["sim"].Err != "boom" {
		t.Fatalf("sim err = %q", byName["sim"].Err)
	}
	if tr.Trace(0) != nil {
		t.Fatal("Trace(0) returned spans")
	}
}

func TestSampling(t *testing.T) {
	tr := New("p", 256, 4)
	var kept int
	for i := 0; i < 100; i++ {
		if s := tr.SampledRoot("http", "POST /v1/run"); s != nil {
			kept++
			s.End()
		}
	}
	if kept != 25 {
		t.Fatalf("1-in-4 sampling kept %d of 100", kept)
	}
	// StartRoot ignores sampling entirely.
	for i := 0; i < 10; i++ {
		if s := tr.StartRoot("campaign", ""); s == nil {
			t.Fatal("StartRoot returned nil on a live tracer")
		}
	}
	// Children of a sampled-out (invalid) context never record.
	if s := tr.StartSpan(SpanContext{}, "x", ""); s != nil {
		t.Fatal("StartSpan under an invalid parent minted a span")
	}
}

func TestSubtreeScopesToDescendants(t *testing.T) {
	tr := New("p", 64, 1)
	root := tr.StartRoot("campaign", "")
	cellA := tr.StartSpan(root.Context(), "cell", "a")
	cellB := tr.StartSpan(root.Context(), "cell", "b")
	simA := tr.StartSpan(cellA.Context(), "sim", "")
	simB := tr.StartSpan(cellB.Context(), "sim", "")
	simA.End()
	simB.End()
	aCtx, bCtx := cellA.Context(), cellB.Context()
	cellA.End()
	cellB.End()
	root.End()

	sub := tr.Subtree(aCtx)
	if len(sub) != 2 {
		t.Fatalf("Subtree(cellA) = %d spans, want cell+sim", len(sub))
	}
	for _, r := range sub {
		if r.Span == bCtx.Span || r.Parent == bCtx.Span {
			t.Fatal("cell B's chain leaked into cell A's subtree")
		}
		if r.Name == "campaign" {
			t.Fatal("root leaked into a cell subtree")
		}
	}
}

func TestIngestKeepsForeignProc(t *testing.T) {
	tr := New("coordinator", 64, 1)
	tr.Ingest([]Record{
		{Trace: 7, Span: 8, Name: "sim", Proc: "worker-1"},
		{Trace: 0, Span: 9, Name: "bad"}, // invalid ids dropped
		{Trace: 7, Span: 0, Name: "bad"},
	})
	recs := tr.Trace(7)
	if len(recs) != 1 {
		t.Fatalf("ingested %d spans, want 1", len(recs))
	}
	if recs[0].Proc != "worker-1" {
		t.Fatalf("ingested span proc = %q, want the foreign label", recs[0].Proc)
	}
}

func TestSummaries(t *testing.T) {
	tr := New("p", 64, 1)
	r1 := tr.StartRoot("campaign", "sweep-1")
	c1 := tr.StartSpan(r1.Context(), "cell", "")
	time.Sleep(2 * time.Millisecond)
	c1.End()
	r1.End()
	r2 := tr.StartRoot("http", "POST /v1/run")
	r2.SetCode(200)
	r2.End()

	sums := tr.Summaries()
	if len(sums) != 2 {
		t.Fatalf("got %d summaries, want 2", len(sums))
	}
	// Newest first.
	if sums[0].Name != "http" || sums[0].Code != 200 {
		t.Fatalf("newest summary = %+v, want the http root", sums[0])
	}
	if sums[1].Name != "campaign" || sums[1].Detail != "sweep-1" {
		t.Fatalf("oldest summary = %+v, want the campaign root", sums[1])
	}
	if sums[1].Spans != 2 {
		t.Fatalf("campaign summary counts %d spans, want 2", sums[1].Spans)
	}
	if sums[1].DurUS <= 0 {
		t.Fatalf("campaign summary duration = %d, want > 0", sums[1].DurUS)
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRing(4)
	for i := 1; i <= 10; i++ {
		r.Add(Record{Trace: ID(i), Span: ID(i)})
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot length = %d, want capacity 4", len(snap))
	}
	for i, want := range []ID{7, 8, 9, 10} {
		if snap[i].Trace != want {
			t.Fatalf("snapshot[%d].Trace = %v, want %v (oldest-first)", i, snap[i].Trace, want)
		}
	}
	total, dropped := r.Stats()
	if total != 10 || dropped != 6 {
		t.Fatalf("stats = %d total, %d dropped; want 10, 6", total, dropped)
	}
}

// TestRingChurnRace hammers one recorder from many goroutines (spans,
// snapshots, summaries) so -race can see any unguarded field; the
// assertions check the ring's bookkeeping stays coherent under
// concurrent eviction.
func TestRingChurnRace(t *testing.T) {
	tr := New("p", 32, 1)
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				root := tr.StartRoot("campaign", fmt.Sprintf("w%d", w))
				child := tr.StartSpan(root.Context(), "cell", "")
				child.End()
				root.End()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			tr.Records()
			tr.Summaries()
			tr.Stages()
		}
	}()
	wg.Wait()
	<-done
	if got := len(tr.Records()); got != 32 {
		t.Fatalf("recorder holds %d spans, want exactly its capacity", got)
	}
	total, dropped := tr.RingStats()
	if want := uint64(writers * perWriter * 2); total != want {
		t.Fatalf("total = %d, want %d", total, want)
	}
	if total-dropped != 32 {
		t.Fatalf("total-dropped = %d, want the live capacity", total-dropped)
	}
}

func TestStages(t *testing.T) {
	base := time.Now()
	recs := []Record{
		{Trace: 1, Span: 1, Name: "sim", StartUS: base.UnixMicro(), DurUS: 2000},
		{Trace: 1, Span: 2, Name: "sim", StartUS: base.UnixMicro(), DurUS: 4000},
		{Trace: 1, Span: 3, Name: "queue", StartUS: base.UnixMicro(), DurUS: 100},
	}
	stages := Stages(recs)
	if len(stages) != 2 {
		t.Fatalf("got %d stages, want 2", len(stages))
	}
	// Sorted by name.
	if stages[0].Name != "queue" || stages[1].Name != "sim" {
		t.Fatalf("stage order = %q, %q", stages[0].Name, stages[1].Name)
	}
	if stages[1].Count != 2 {
		t.Fatalf("sim count = %d, want 2", stages[1].Count)
	}
	if stages[1].P95MS < stages[1].P50MS {
		t.Fatalf("sim p95 %.3f < p50 %.3f", stages[1].P95MS, stages[1].P50MS)
	}
	if got := Stages(nil); len(got) != 0 {
		t.Fatal("Stages(nil) returned rows")
	}
}
