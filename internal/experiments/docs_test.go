package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// docTestOptions shrinks the docs run to one pair so the composer
// tests stay cheap; the full 12-pair run is exercised by the CI
// docs-freshness job.
func docTestOptions() Options {
	o := TestOptions()
	o.Mixes = o.Mixes[:1]
	return o
}

// firstDocRender is the one-pair EXPERIMENTS.md render that both doc
// tests read, rendered once per test binary.
var firstDocRender = sync.OnceValues(func() (docRender, error) {
	doc, ds, err := ExperimentsDoc(docTestOptions())
	return docRender{doc, ds}, err
})

type docRender struct {
	doc []byte
	ds  DocStats
}

// TestExperimentsDocDeterministic renders EXPERIMENTS.md twice at a
// fixed seed/scale and demands identical bytes — the property that
// lets CI `git diff` the generated docs — and requires every
// registered shape check to pass on that run. This is where tier-1
// asserts each figure's Shape, on the table users see.
func TestExperimentsDocDeterministic(t *testing.T) {
	first, err := firstDocRender()
	if err != nil {
		t.Fatal(err)
	}
	a, dsA := first.doc, first.ds
	// Fresh options carry a fresh runner, so the second render
	// re-simulates from scratch; sharing one would make the
	// byte-equality test only the composer, not the simulator's
	// determinism.
	b, dsB, err := ExperimentsDoc(docTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("EXPERIMENTS.md not byte-stable across runs")
	}
	if dsA != dsB {
		t.Errorf("verdict stats not stable: %+v vs %+v", dsA, dsB)
	}
	if dsA.Checked != len(Registry()) {
		t.Errorf("checked %d figures, registry has %d", dsA.Checked, len(Registry()))
	}
	if dsA.Passed+dsA.Failed != dsA.Checked {
		t.Errorf("verdicts don't add up: %+v", dsA)
	}
	if dsA.Failed != 0 {
		t.Errorf("%d of %d shape checks fail:\n%s", dsA.Failed, dsA.Checked, failedVerdicts(a))
	}
}

// failedVerdicts lists each FAIL verdict in doc under its figure's
// section heading.
func failedVerdicts(doc []byte) string {
	var b strings.Builder
	heading := ""
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "## ") {
			heading = line
		}
		if strings.HasPrefix(line, "**Verdict: FAIL") {
			b.WriteString(heading + ": " + line + "\n")
		}
	}
	return b.String()
}

// TestExperimentsDocContent checks the composer's contract on the
// render TestExperimentsDocDeterministic compares: every registered
// figure appears with its paper claim, a verdict, and its measured
// table.
func TestExperimentsDocContent(t *testing.T) {
	first, err := firstDocRender()
	if err != nil {
		t.Fatal(err)
	}
	s := string(first.doc)
	for _, f := range Registry() {
		if !strings.Contains(s, "(`"+f.ID+"`)") {
			t.Errorf("missing section for %s", f.ID)
		}
		if !strings.Contains(s, f.Claim) {
			t.Errorf("missing claim for %s", f.ID)
		}
	}
	if !strings.Contains(s, "**Verdict: ") {
		t.Error("no verdicts rendered")
	}
	if !strings.Contains(s, "GENERATED FILE") {
		t.Error("missing generated-file banner")
	}
	// The claim column appears alongside measured values: spot-check
	// that Fig. 10's table header made it in next to its claim.
	if !strings.Contains(s, "| workload | Hetero |") {
		t.Error("Fig. 10 measured table missing")
	}
}

func TestDesignDocContent(t *testing.T) {
	s := string(DesignDoc())
	for _, want := range []string{
		"## Simulation engine",
		"## Workload model",
		"## Flash, FTL and the SSD module",
		"## MMU, caches and the ZnG optimizations",
		"## Platforms",
		"## Experiments and reporting",
		"## Serving: result store and simulation service",
		"## Figure and ablation inventory (generated)",
		"GENERATED FILE",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("DESIGN.md missing %q", want)
		}
	}
	for _, f := range Registry() {
		if !strings.Contains(s, "`"+f.ID+"`") {
			t.Errorf("inventory missing %s", f.ID)
		}
		if !strings.Contains(s, "`experiments."+f.DriverName()+"`") {
			t.Errorf("inventory missing driver %s", f.DriverName())
		}
	}
}
