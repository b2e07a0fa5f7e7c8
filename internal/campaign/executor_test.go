package campaign

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"zng/internal/config"
	"zng/internal/platform"
	"zng/internal/workload"
)

// stubRunner answers cells from a function while counting calls and
// tracking peak concurrency.
type stubRunner struct {
	mu      sync.Mutex
	calls   int
	active  int
	peak    int
	fn      func(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error)
	stall   time.Duration
	failMix string // cells of this mix fail
}

func (s *stubRunner) Run(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
	s.mu.Lock()
	s.calls++
	s.active++
	if s.active > s.peak {
		s.peak = s.active
	}
	s.mu.Unlock()
	if s.stall > 0 {
		time.Sleep(s.stall)
	}
	defer func() {
		s.mu.Lock()
		s.active--
		s.mu.Unlock()
	}()
	if mix.Name == s.failMix {
		return platform.Result{}, errors.New("injected failure")
	}
	if s.fn != nil {
		return s.fn(kind, mix, scale, cfg)
	}
	return platform.Result{Kind: kind, Workload: mix.Name, IPC: scale * 10}, nil
}

func soloSpec(n int) Spec {
	apps := []string{"solo-bfs1", "solo-gaus", "solo-pr", "solo-back", "solo-betw", "solo-deg"}
	return Spec{Name: "test", Platforms: []string{"ZnG"}, Scenarios: apps[:n], Scales: []float64{0.5}}
}

func TestExecutorRunsEveryCellOnce(t *testing.T) {
	r := &stubRunner{}
	ex := Executor{Runner: r, Workers: 3}
	out, err := ex.Execute(Spec{
		Name:      "full",
		Platforms: []string{"ZnG", "HybridGPU"},
		Scenarios: []string{"betw-back", "pr-gaus", "bfs1-gaus"},
		Scales:    []float64{0.5},
	}, config.Default())
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	if r.calls != 6 {
		t.Errorf("runner saw %d calls, want 6 (one per cell)", r.calls)
	}
	if out.Failed() != 0 || len(out.Cells) != 6 {
		t.Errorf("outcome: %d cells, %d failed", len(out.Cells), out.Failed())
	}
	for i, cr := range out.Cells {
		if cr.Err != nil || cr.Result.IPC != 5 {
			t.Errorf("cell %d: %+v", i, cr)
		}
		if cr.Cell.Index != i {
			t.Errorf("cell %d out of expansion order (index %d)", i, cr.Cell.Index)
		}
	}
}

func TestExecutorBoundsConcurrency(t *testing.T) {
	r := &stubRunner{stall: 20 * time.Millisecond}
	ex := Executor{Runner: r, Workers: 2}
	out, err := ex.Execute(soloSpec(6), config.Default())
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	if r.peak > 2 {
		t.Errorf("peak concurrency %d exceeds Workers=2", r.peak)
	}
}

// TestExecutorPartialFailure: a failed cell runs once and fails
// alone. The campaign completes the other cells, reports the failure
// per cell and names the failed cell in full.
func TestExecutorPartialFailure(t *testing.T) {
	r := &stubRunner{failMix: "solo-pr"}
	ex := Executor{Runner: r, Workers: 1}
	run, err := ex.Start(soloSpec(3), config.Default())
	if err != nil {
		t.Fatal(err)
	}
	out := run.Wait()
	if p := run.Progress(); p.Failed != 1 || p.Done != 2 {
		t.Errorf("progress = %+v, want 1 failed, 2 done", p)
	}
	if r.calls != 3 {
		t.Errorf("runner saw %d calls, want 3 (the failed cell runs once)", r.calls)
	}
	if out.Failed() != 1 {
		t.Fatalf("failed = %d, want 1", out.Failed())
	}
	byName := map[string]CellResult{}
	for _, cr := range out.Cells {
		byName[cr.Cell.Mix.Name] = cr
	}
	for _, clean := range []string{"solo-bfs1", "solo-gaus"} {
		if cr := byName[clean]; cr.Err != nil {
			t.Errorf("clean cell: %+v", cr)
		}
	}
	if cr := byName["solo-pr"]; cr.Err == nil {
		t.Errorf("broken cell: %+v, want its error", cr)
	}
	err = out.Err()
	for _, want := range []string{"1 of 3", "ZnG on solo-pr at scale 0.5: injected failure"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("outcome error = %v, want it to contain %q", err, want)
		}
	}
}

func TestExecutorProgressCounters(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	r := &stubRunner{fn: func(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
		started <- struct{}{}
		<-gate
		return platform.Result{IPC: 1}, nil
	}}
	ex := Executor{Runner: r, Workers: 2}
	run, err := ex.Start(soloSpec(4), config.Default())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	<-started
	if p := run.Progress(); p.Total != 4 || p.Done != 0 || p.Finished() {
		t.Errorf("mid-flight progress = %+v", p)
	}
	if run.Done() {
		t.Error("Done() true while cells in flight")
	}
	if run.Outcome() != nil {
		t.Error("Outcome() non-nil while running")
	}
	close(gate)
	out := run.Wait()
	if p := run.Progress(); p.Done != 4 || !p.Finished() {
		t.Errorf("final progress = %+v", p)
	}
	if out.Err() != nil || !run.Done() {
		t.Errorf("outcome err = %v", out.Err())
	}
}

func TestOutcomeTableFold(t *testing.T) {
	r := &stubRunner{fn: func(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
		if mix.Name == "solo-pr" && kind == platform.HybridGPU {
			return platform.Result{}, errors.New("deadlock")
		}
		// A recognizable IPC per cell axis point.
		ipc := float64(len(mix.Name)) * scale
		if cfg.L2STT.Sets > config.Default().L2STT.Sets {
			ipc *= 2
		}
		return platform.Result{Kind: kind, Workload: mix.Name, IPC: ipc}, nil
	}}
	spec := Spec{
		Name:      "fold",
		Platforms: []string{"ZnG", "HybridGPU"},
		Scenarios: []string{"solo-bfs1", "solo-pr"},
		Scales:    []float64{0.5, 1},
		Overrides: []Override{{}, {Config: doc(`{"L2STT":{"Sets":16384}}`)}},
	}
	out, err := Executor{Runner: r, Workers: 4}.Execute(spec, config.Default())
	if err != nil {
		t.Fatal(err)
	}
	tab := out.Table()
	wantHeader := []string{"scenario", "scale", "config", "ZnG", "HybridGPU"}
	if got := tab.Header(); fmt.Sprint(got) != fmt.Sprint(wantHeader) {
		t.Fatalf("header = %v, want %v", got, wantHeader)
	}
	if tab.Rows() != 2*2*2 {
		t.Fatalf("rows = %d, want 8 (scenario x scale x override)", tab.Rows())
	}
	// Row 0: base override, scale 0.5, solo-bfs1.
	row := tab.Row(0)
	if row[0] != "solo-bfs1" || row[1] != "0.5" || row[2] != "base" {
		t.Errorf("row 0 axes = %v", row[:3])
	}
	if row[3] != "4.5" { // len("solo-bfs1") = 9, * 0.5
		t.Errorf("row 0 ZnG IPC = %q, want 4.5", row[3])
	}
	// The failing cell renders ERROR without suppressing the matrix.
	foundErr := false
	for i := 0; i < tab.Rows(); i++ {
		if tab.Row(i)[0] == "solo-pr" && tab.Row(i)[4] == "ERROR" {
			foundErr = true
		}
	}
	if !foundErr {
		t.Error("failed cell did not render as ERROR")
	}
	// The larger-L2 block doubles ZnG IPC, proving the override
	// reached the runner's cfg; its label is the unnamed document.
	last := tab.Row(tab.Rows() - 2) // 16,384 sets, scale 1, solo-bfs1
	if last[2] != `{"L2STT":{"Sets":16384}}` || last[3] != "18" {
		t.Errorf("override row = %v, want the document's label with doubled IPC 18", last)
	}
}

func TestExecutorStartValidation(t *testing.T) {
	if _, err := (Executor{}).Start(soloSpec(1), config.Default()); err == nil {
		t.Error("runnerless executor started")
	}
	if _, err := (Executor{Runner: &stubRunner{}}).Start(Spec{}, config.Default()); err == nil {
		t.Error("empty spec expanded")
	}
}
