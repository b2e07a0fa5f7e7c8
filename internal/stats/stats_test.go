package stats

import (
	"strings"
	"testing"
)

func TestCounter(t *testing.T) {
	var c, d Counter
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Errorf("Value = %d, want 10", c.Value())
	}
	d.Add(5)
	if r := c.Ratio(&d); r != 2 {
		t.Errorf("Ratio = %v, want 2", r)
	}
	var zero Counter
	if r := c.Ratio(&zero); r != 0 {
		t.Errorf("Ratio by zero = %v, want 0", r)
	}
}

func TestBreakdown(t *testing.T) {
	b := NewBreakdown()
	b.Add("l1", 10)
	b.Add("l2", 20)
	b.Add("flash", 70)
	b.Add("l1", 0) // no-op add keeps order
	if got := b.Total(); got != 100 {
		t.Errorf("Total = %v, want 100", got)
	}
	comps := b.Components()
	if len(comps) != 3 || comps[0] != "l1" || comps[2] != "flash" {
		t.Errorf("Components = %v", comps)
	}
	if b.Get("l2") != 20 {
		t.Errorf("Get(l2) = %v", b.Get("l2"))
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "workload", "ipc", "speedup")
	tb.AddRow("betw-back", 0.125, 7.5)
	tb.AddRow("bfs1-gaus", 1, "n/a")
	s := tb.String()
	if !strings.Contains(s, "== Fig X ==") {
		t.Errorf("missing title:\n%s", s)
	}
	if !strings.Contains(s, "betw-back") || !strings.Contains(s, "0.125") {
		t.Errorf("missing cells:\n%s", s)
	}
	if tb.Rows() != 2 {
		t.Errorf("Rows = %d", tb.Rows())
	}
	if tb.Cell(1, 1) != "1" {
		t.Errorf("Cell(1,1) = %q, want trimmed %q", tb.Cell(1, 1), "1")
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Errorf("line count = %d, want 5:\n%s", len(lines), s)
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		1.5:   "1.5",
		2:     "2",
		0.125: "0.125",
		0:     "0",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
