package mem

import (
	"testing"
	"testing/quick"

	"zng/internal/sim"
)

func TestLineAddr(t *testing.T) {
	cases := []struct {
		addr uint64
		line int
		want uint64
	}{
		{0, 128, 0},
		{127, 128, 0},
		{128, 128, 128},
		{0x1234, 128, 0x1200 | 0x00},
		{4095, 4096, 0},
		{4096, 4096, 4096},
	}
	for _, c := range cases {
		if got := LineAddr(c.addr, c.line); got != c.want {
			t.Errorf("LineAddr(%#x, %d) = %#x, want %#x", c.addr, c.line, got, c.want)
		}
	}
}

func TestPageAddr(t *testing.T) {
	if got := PageAddr(0x12345, PageBytes4K); got != 0x12000 {
		t.Errorf("PageAddr = %#x", got)
	}
}

// Property: LineAddr is idempotent and never exceeds the input.
func TestLineAddrProperty(t *testing.T) {
	f := func(addr uint64) bool {
		la := LineAddr(addr, 128)
		return la <= addr && LineAddr(la, 128) == la && addr-la < 128
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompleteNilSafe(t *testing.T) {
	r := &Request{}
	r.Complete() // must not panic with nil Done
	called := 0
	r.Done = sim.Func(func() { called++ })
	r.Complete()
	if called != 1 {
		t.Errorf("called = %d", called)
	}
}

func TestFuncAdapter(t *testing.T) {
	hit := false
	var m Memory = Func(func(r *Request) { hit = true; r.Complete() })
	done := false
	m.Access(&Request{Done: sim.Func(func() { done = true })})
	if !hit || !done {
		t.Error("Func adapter failed")
	}
}

func TestQueueFIFO(t *testing.T) {
	var q Queue
	rs := []*Request{{Addr: 1}, {Addr: 2}, {Addr: 3}}
	for _, r := range rs {
		q.Push(r)
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
	if r := q.Pop(); r != rs[0] {
		t.Fatalf("first Pop = %v, want request 1", r)
	}
	q.Push(rs[0]) // a popped request may be queued again
	for _, want := range []uint64{2, 3, 1} {
		if r := q.Pop(); r == nil || r.Addr != want {
			t.Fatalf("Pop = %v, want addr %d", r, want)
		}
	}
	if q.Pop() != nil || q.Len() != 0 {
		t.Fatal("queue not empty after draining")
	}
}

// A request scheduled as its own completion event fires Done with
// itself as the argument.
func TestRequestAsCompletionEvent(t *testing.T) {
	eng := sim.NewEngine()
	var got *Request
	r := &Request{}
	r.Done = sim.Func(func() { got = r })
	eng.Schedule(3, r, nil)
	eng.Run()
	if got != r || eng.Now() != 3 {
		t.Fatalf("completion fired with %v at %d, want r at 3", got, eng.Now())
	}
}
