// Command zngload drives a running zngd daemon with a sustained
// synthetic request load and reports what the serving path delivered:
// throughput, client-observed latency quantiles, per-tier hit counts
// and admission rejections, as one JSON document on stdout.
//
// Usage:
//
//	zngload -addr 127.0.0.1:8080 -concurrency 16 -duration 10s
//	zngload -addr $ADDR -scenarios solo-bfs1,solo-gaus -scales 0.05,0.1 \
//	        -min-rps 50 -max-p99 2s        # CI gate: non-zero exit below floors
//
// The generator rotates -concurrency workers over the cell grid
// (scenarios × scales), so after the first pass every request is a
// hot-path hit — the memory tier (or the store) is what is being
// measured, exactly the regime an always-on daemon serves. A 429
// reply counts as rejected (never as an error) and the worker backs
// off briefly; any other non-200 counts as an error and fails the
// gate.
//
// With -min-rps or -max-p99 set, zngload exits non-zero when the run
// missed the floor — the CI regression gate for serving throughput
// and tail latency.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zng/internal/latency"
	"zng/internal/obs"
)

// loadConfig parameterizes one load run.
type loadConfig struct {
	Addr        string
	Concurrency int
	Duration    time.Duration
	Platform    string
	Scenarios   []string
	Scales      []float64
	Timeout     time.Duration
	MinRPS      float64
	MaxP99      time.Duration
}

// reportDoc is the stdout JSON document.
type reportDoc struct {
	DurationS     float64          `json:"duration_s"`
	Concurrency   int              `json:"concurrency"`
	Requests      uint64           `json:"requests"`
	OK            uint64           `json:"ok"`
	Rejected      uint64           `json:"rejected"` // 429s: shed load, not failures
	Errors        uint64           `json:"errors"`
	ThroughputRPS float64          `json:"throughput_rps"`
	Latency       latency.Snapshot `json:"latency"`
	// Tiers counts the source each reply's job reports (memory/disk/
	// sim), which names the tier that served that request: a request
	// answered by a retained completed job, or by the memory result
	// tier, reports memory however the cell was first computed. A
	// request that coalesced onto an in-flight job reports that job's
	// source.
	Tiers map[string]uint64 `json:"tiers"`
	// Stages is the daemon's server-side per-stage latency breakdown
	// (GET /v1/trace/stats) over whatever spans its flight recorder
	// held after the run — empty when the daemon runs untraced.
	Stages   []obs.StageStat `json:"stages,omitempty"`
	MinRPS   float64         `json:"min_rps,omitempty"`
	MaxP99MS float64         `json:"max_p99_ms,omitempty"`
	Pass     bool            `json:"pass"`
}

func main() {
	var (
		addr        = flag.String("addr", "", "zngd address (host:port, required)")
		concurrency = flag.Int("concurrency", 8, "concurrent request workers")
		duration    = flag.Duration("duration", 10*time.Second, "how long to sustain the load")
		platformF   = flag.String("platform", "GDDR5", "platform for every request")
		scenarios   = flag.String("scenarios", "solo-bfs1,solo-gaus,solo-pr", "comma-separated scenario names to rotate over")
		scales      = flag.String("scales", "0.05", "comma-separated scale factors to rotate over")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-request client timeout")
		minRPS      = flag.Float64("min-rps", 0, "fail (exit 1) below this sustained throughput (0 = no floor)")
		maxP99      = flag.Duration("max-p99", 0, "fail (exit 1) above this client-observed p99 (0 = no ceiling)")
	)
	flag.Parse()
	if *addr == "" {
		fatal(fmt.Errorf("-addr is required"))
	}
	cfg := loadConfig{
		Addr:        *addr,
		Concurrency: *concurrency,
		Duration:    *duration,
		Platform:    *platformF,
		Scenarios:   strings.Split(*scenarios, ","),
		Timeout:     *timeout,
		MinRPS:      *minRPS,
		MaxP99:      *maxP99,
	}
	for _, s := range strings.Split(*scales, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fatal(fmt.Errorf("parsing -scales: %w", err))
		}
		cfg.Scales = append(cfg.Scales, v)
	}

	doc, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatal(err)
	}
	if !doc.Pass {
		fmt.Fprintln(os.Stderr, "zngload: floors not met")
		os.Exit(1)
	}
}

// cell is one point of the request grid.
type cell struct {
	scenario string
	scale    float64
}

// run sustains the load and folds the outcome into the report.
func run(cfg loadConfig) (reportDoc, error) {
	if cfg.Concurrency <= 0 {
		return reportDoc{}, fmt.Errorf("concurrency must be positive, got %d", cfg.Concurrency)
	}
	var grid []cell
	for _, sc := range cfg.Scenarios {
		sc = strings.TrimSpace(sc)
		if sc == "" {
			continue
		}
		for _, s := range cfg.Scales {
			grid = append(grid, cell{scenario: sc, scale: s})
		}
	}
	if len(grid) == 0 {
		return reportDoc{}, fmt.Errorf("empty scenario grid")
	}

	var (
		requests, ok, rejected, errs atomic.Uint64
		memHits, diskHits, simHits   atomic.Uint64
		hist                         latency.Histogram
		wg                           sync.WaitGroup
	)
	client := &http.Client{Timeout: cfg.Timeout}
	url := "http://" + cfg.Addr + "/v1/run"
	deadline := time.Now().Add(cfg.Duration)
	start := time.Now()
	for g := 0; g < cfg.Concurrency; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Workers start at staggered grid offsets so the first pass
			// already spreads across cells instead of stampeding one.
			for i := g; time.Now().Before(deadline); i++ {
				c := grid[i%len(grid)]
				body, _ := json.Marshal(map[string]any{
					"platform": cfg.Platform, "mix": c.scenario, "scale": c.scale,
				})
				reqStart := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				requests.Add(1)
				if err != nil {
					errs.Add(1)
					continue
				}
				var reply struct {
					Job struct {
						Source string `json:"source"`
					} `json:"job"`
				}
				decErr := json.NewDecoder(resp.Body).Decode(&reply)
				resp.Body.Close()
				hist.Observe(time.Since(reqStart))
				switch {
				case resp.StatusCode == http.StatusOK && decErr == nil:
					ok.Add(1)
					switch reply.Job.Source {
					case "memory":
						memHits.Add(1)
					case "disk":
						diskHits.Add(1)
					case "sim":
						simHits.Add(1)
					}
				case resp.StatusCode == http.StatusTooManyRequests:
					// Shed load is the admission control working. Back off
					// briefly (not the full Retry-After — the point of the
					// harness is to keep pressure on) and keep driving.
					rejected.Add(1)
					time.Sleep(10 * time.Millisecond)
				default:
					errs.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	doc := reportDoc{
		DurationS:   elapsed.Seconds(),
		Concurrency: cfg.Concurrency,
		Requests:    requests.Load(),
		OK:          ok.Load(),
		Rejected:    rejected.Load(),
		Errors:      errs.Load(),
		Latency:     hist.Snapshot(),
		Tiers: map[string]uint64{
			"memory": memHits.Load(),
			"disk":   diskHits.Load(),
			"sim":    simHits.Load(),
		},
		MinRPS: cfg.MinRPS,
	}
	if elapsed > 0 {
		doc.ThroughputRPS = float64(doc.OK) / elapsed.Seconds()
	}
	if cfg.MaxP99 > 0 {
		doc.MaxP99MS = float64(cfg.MaxP99) / float64(time.Millisecond)
	}
	doc.Stages = fetchStages(client, cfg.Addr)
	doc.Pass = doc.Errors == 0 &&
		(cfg.MinRPS <= 0 || doc.ThroughputRPS >= cfg.MinRPS) &&
		(cfg.MaxP99 <= 0 || doc.Latency.P99MS <= doc.MaxP99MS)
	return doc, nil
}

// fetchStages pulls the daemon's server-side stage breakdown; any
// failure (old daemon, tracing disabled) just leaves the field empty —
// the load report never fails over observability.
func fetchStages(client *http.Client, addr string) []obs.StageStat {
	resp, err := client.Get("http://" + addr + "/v1/trace/stats")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var reply struct {
		Stages []obs.StageStat `json:"stages"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return nil
	}
	return reply.Stages
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "zngload:", err)
	os.Exit(1)
}
