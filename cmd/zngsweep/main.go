// Command zngsweep declares and executes simulation campaigns: whole
// evaluation matrices (platforms × scenarios × scales × config
// overrides) expanded from flags or a JSON spec file, executed in
// this process or inside a zngd fleet coordinator.
//
// Usage:
//
//	zngsweep -platforms ZnG,HybridGPU -scenarios betw-back,pr-gaus -scales 0.12
//	zngsweep -platforms ZnG -scenarios bfs1+gaus*1.5,pr-gaus   # ad-hoc co-run + registered
//	zngsweep -spec sweep.json -format csv
//	zngsweep -platforms ZnG -scenarios solo-bfs1 -cache ~/.zng-cache
//	zngsweep -spec sweep.json -coordinator 10.0.0.1:8080 -v
//
// A spec file is the JSON form of campaign.Spec:
//
//	{
//	  "name": "l2-sweep",
//	  "platforms": ["ZnG"],
//	  "scenarios": ["betw-back", "bfs1-gaus"],
//	  "scales": [0.12],
//	  "overrides": [
//	    {"name": "base"},
//	    {"name": "l2x8", "config": {"L2STT": {"Sets": 8192}}},
//	    {"name": "nopf", "config": {"Prefetch": {"CutoffThresh": 1073741824}}}
//	  ]
//	}
//
// An override's config is a partial config.Config document decoded
// over the base configuration, as zngd decodes POST /v1/run's
// "config": {"Flash": {"Channels": 8}} runs 8 flash channels, and an
// unknown field or a value out of its range fails the spec.
//
// A spec whose grid is over campaign.MaxCells (16,384) cells is
// refused, from a file or from flags.
//
// In this process a campaign runs on one simsvc service, which
// simulates each unique cell once. It is memory-only by default; with
// -cache DIR the persistent store backs it, so cells persist and
// dedupe across invocations and against zngd daemons sharing the
// directory.
//
// With -coordinator URL the campaign runs inside a zngd fleet
// coordinator instead, which is the one way a sweep leaves this
// process: the spec is POSTed to /v1/campaigns, progress long-polls
// (GET /v1/campaigns/{id}?wait=1s) until done, and the coordinator's
// folded matrix renders locally. The coordinator fans the cells out
// over the workers registered with it (zngd -coordinator URL),
// re-routes a cell whose worker faults to another one, and runs a cell
// itself when no worker is left; results are byte-identical to a local
// run. Campaigns run that way are durable — the coordinator writes each
// finished cell into its store and reads the store before running any
// cell — so `zngsweep -coordinator URL -resume ID` resumes a sweep the
// coordinator (or this command) died in the middle of, re-running only
// the cells the store lacks.
//
// The result matrix renders as a text table by default, or through
// internal/report with -format md|csv|json. Failed cells render as
// ERROR and the exit status is non-zero; the rest of the matrix still
// prints. -v adds live progress, the runner's dedup counters and a
// per-stage latency breakdown (queue wait, tier lookups, simulation,
// store writes) folded from the campaign's trace — local runs record
// it in-process, -coordinator runs fetch the coordinator's span tree
// from GET /v1/trace/{id}.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"zng/internal/campaign"
	"zng/internal/config"
	"zng/internal/obs"
	"zng/internal/report"
	"zng/internal/simsvc"
	"zng/internal/store"
)

func main() {
	var (
		specFile  = flag.String("spec", "", "campaign spec JSON file (overrides the axis flags)")
		name      = flag.String("name", "", "campaign name (table title)")
		platforms = flag.String("platforms", "", "comma-separated platform axis, e.g. ZnG,HybridGPU")
		scenarios = flag.String("scenarios", "", "comma-separated scenario axis: registered names or '+'-joined ad-hoc compositions like bfs1+gaus*1.5")
		scales    = flag.String("scales", "", "comma-separated scale axis (default 1.0, the Table II budgets)")
		coord     = flag.String("coordinator", "", "run the campaign inside this zngd fleet coordinator (host:port or URL)")
		resumeID  = flag.String("resume", "", "resume a checkpointed campaign by id on the coordinator (requires -coordinator)")
		cacheDir  = flag.String("cache", "", "persistent result store directory (local execution)")
		workers   = flag.Int("workers", 0, "concurrent in-flight cells (0 = NumCPU)")
		format    = flag.String("format", "", "rendering: md, csv or json (default: text table)")
		verbose   = flag.Bool("v", false, "live progress, runner stats and per-stage latency")
	)
	flag.Parse()

	if *format != "" && !slices.Contains(report.Formats(), *format) {
		fatal(fmt.Errorf("unknown format %q (valid: %s)", *format, strings.Join(report.Formats(), ", ")))
	}

	if *resumeID != "" && *coord == "" {
		fatal(fmt.Errorf("-resume needs -coordinator (the checkpoint lives in the coordinator's store)"))
	}
	if *coord != "" && *cacheDir != "" {
		fatal(fmt.Errorf("-coordinator is its own backend; it excludes -cache"))
	}

	spec, err := buildSpec(*specFile, *name, *platforms, *scenarios, *scales)
	if err != nil {
		fatal(err)
	}

	if *coord != "" {
		if err := runOnCoordinator(*coord, spec, *resumeID, *format, *verbose); err != nil {
			fatal(err)
		}
		return
	}

	// -v traces the campaign end to end (unsampled: the caller asked
	// for this sweep) so the per-stage breakdown prints afterwards.
	var tracer *obs.Tracer
	if *verbose {
		tracer = obs.New("zngsweep", obs.DefaultCapacity, 1)
	}

	var st *store.Store
	if *cacheDir != "" {
		if st, err = store.Open(*cacheDir); err != nil {
			fatal(err)
		}
	}
	svc := simsvc.New(simsvc.Config{Store: st, Workers: *workers, Tracer: tracer})
	defer svc.Close()

	ex := campaign.Executor{Runner: svc, Workers: *workers, Tracer: tracer}
	run, err := ex.Start(spec, config.Default())
	if err != nil {
		fatal(err)
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "zngsweep: %d cells (%d unique) across %d platforms x %d scenarios\n",
			len(run.Cells()), campaign.UniqueCells(run.Cells()), len(spec.Platforms), len(spec.Scenarios))
		go func() {
			for !run.Done() {
				p := run.Progress()
				fmt.Fprintf(os.Stderr, "zngsweep: %d/%d done, %d failed\n", p.Done, p.Total, p.Failed)
				time.Sleep(time.Second)
			}
		}()
	}
	start := time.Now()
	out := run.Wait()

	t := out.Table()
	if *format == "" {
		fmt.Println(t)
	} else {
		rendered, err := report.Render(t, *format)
		if err != nil {
			fatal(err)
		}
		if _, err := os.Stdout.Write(rendered); err != nil {
			fatal(err)
		}
	}

	if *verbose {
		fmt.Fprintf(os.Stderr, "zngsweep: campaign finished in %v\n", time.Since(start).Round(time.Millisecond))
		rs := svc.Stats()
		fmt.Fprintf(os.Stderr, "zngsweep: %d unique simulations, %d memory hits, %d disk hits, %d coalesced\n",
			rs.Sims, rs.MemoryHits, rs.DiskHits, rs.Coalesced)
		printStages(tracer.Stages())
	}
	if err := out.Err(); err != nil {
		fatal(err)
	}
}

// runOnCoordinator executes (or resumes) the campaign inside a zngd
// fleet coordinator: POST the spec (or the resume), long-poll to done,
// render the coordinator's folded matrix through the same emitters a
// local run uses.
func runOnCoordinator(base string, spec campaign.Spec, resumeID, format string, verbose bool) error {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	hc := &http.Client{Timeout: 30 * time.Second}

	var resp *http.Response
	var err error
	if resumeID != "" {
		resp, err = hc.Post(base+"/v1/campaigns/"+resumeID+"/resume", "application/json", strings.NewReader("{}"))
	} else {
		body, merr := json.Marshal(spec)
		if merr != nil {
			return merr
		}
		resp, err = hc.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	}
	if err != nil {
		return err
	}
	var started struct {
		Campaign simsvc.CampaignInfo `json:"campaign"`
		Error    string              `json:"error"`
	}
	if err := decodeReply(resp, &started); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("coordinator refused the campaign (status %d): %s", resp.StatusCode, started.Error)
	}
	id := started.Campaign.ID
	if verbose {
		fmt.Fprintf(os.Stderr, "zngsweep: campaign %s on %s\n", id, base)
	}

	// Long-poll to done: each GET waits up to a second for the campaign
	// to finish, so completion is seen in the round trip it happens in
	// and -v still prints progress about once a second.
	var detail struct {
		simsvc.CampaignDetail
		Error string `json:"error"`
	}
	for {
		resp, err := hc.Get(base + "/v1/campaigns/" + id + "?wait=1s")
		if err != nil {
			return err
		}
		detail.Errors, detail.Table = nil, nil
		if err := decodeReply(resp, &detail); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("polling campaign %s (status %d): %s", id, resp.StatusCode, detail.Error)
		}
		if detail.State == "done" {
			break
		}
		if verbose {
			p := detail.Progress
			fmt.Fprintf(os.Stderr, "zngsweep: %d/%d done, %d failed\n", p.Done, p.Total, p.Failed)
		}
	}

	t, err := report.DecodeTable(detail.Table)
	if err != nil {
		return err
	}
	if format == "" {
		fmt.Println(t)
	} else {
		rendered, err := report.Render(t, format)
		if err != nil {
			return err
		}
		if _, err := os.Stdout.Write(rendered); err != nil {
			return err
		}
	}
	for _, ce := range detail.Errors {
		fmt.Fprintf(os.Stderr, "zngsweep: cell %s/%s@%v [%s]: %s\n", ce.Platform, ce.Scenario, ce.Scale, ce.Config, ce.Error)
	}
	if verbose && detail.Trace != "" {
		// The coordinator traced the whole campaign (dispatch, peer
		// round trips, worker queue/tier/sim spans); fold its span tree
		// into the same per-stage view a local -v run prints.
		resp, err := hc.Get(base + "/v1/trace/" + detail.Trace)
		if err == nil {
			var tree struct {
				Spans []obs.Record `json:"spans"`
			}
			if err := decodeReply(resp, &tree); err == nil && resp.StatusCode == http.StatusOK {
				printStages(obs.Stages(tree.Spans))
			}
		}
	}
	if n := len(detail.Errors); n > 0 {
		return fmt.Errorf("%d cells failed on the coordinator", n)
	}
	return nil
}

// printStages renders the per-stage latency breakdown (-v): one row
// per span kind, p50/p95 over every recorded span of that kind.
func printStages(stages []obs.StageStat) {
	if len(stages) == 0 {
		return
	}
	fmt.Fprintln(os.Stderr, "zngsweep: per-stage latency:")
	fmt.Fprintf(os.Stderr, "zngsweep:   %-16s %8s %12s %12s\n", "stage", "count", "p50", "p95")
	for _, s := range stages {
		fmt.Fprintf(os.Stderr, "zngsweep:   %-16s %8d %10.3fms %10.3fms\n", s.Name, s.Count, s.P50MS, s.P95MS)
	}
}

func decodeReply(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("undecodable coordinator reply (status %d): %w", resp.StatusCode, err)
	}
	return nil
}

// buildSpec loads the spec file, or assembles a spec from the axis
// flags. Flags layered on top of a file override its axes, so a saved
// spec can be re-run at another scale without editing it.
func buildSpec(specFile, name, platforms, scenarios, scales string) (campaign.Spec, error) {
	var spec campaign.Spec
	if specFile != "" {
		b, err := os.ReadFile(specFile)
		if err != nil {
			return spec, err
		}
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return spec, fmt.Errorf("parsing %s: %w", specFile, err)
		}
	}
	if name != "" {
		spec.Name = name
	}
	if platforms != "" {
		spec.Platforms = splitCSV(platforms)
	}
	if scenarios != "" {
		// Entries are registered names or '+'-joined compositions
		// ("bfs1+gaus*1.5"), so ',' always separates scenarios — an
		// ad-hoc co-run can never be silently split into solo cells.
		spec.Scenarios = splitCSV(scenarios)
	}
	if scales != "" {
		spec.Scales = nil
		for _, s := range splitCSV(scales) {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return spec, fmt.Errorf("bad -scales entry %q: %w", s, err)
			}
			spec.Scales = append(spec.Scales, v)
		}
	}
	// No scale default here: Expand's own {1.0} applies, so the same
	// spec means the same cells whether it runs through zngsweep, the
	// library, or POST /v1/campaigns.
	return spec, nil
}

func splitCSV(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "zngsweep:", err)
	os.Exit(1)
}
