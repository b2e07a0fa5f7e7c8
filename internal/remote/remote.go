// Package remote turns zngd daemons into simulation backends: a
// Client implements the experiments/campaign Runner interface against
// one peer's HTTP JSON API, and a Dispatcher (dispatcher.go) shards
// cells across N peers — re-routed on peer failure, balanced by
// least-in-flight work stealing — as the dispatch layer of the fleet
// coordinator (internal/fleet), so several zngd processes compose into
// one horizontally-scaled simulation fleet.
// This is the FlashGraph/Gunrock split applied to the simulator
// itself: the semantic layer (campaign specs, figure drivers) stays
// single-image while execution fans out over commodity workers.
//
// A request carries the cell's full configuration, not just the
// platform/mix/scale triple, so the peer computes exactly the cell
// the caller addressed — the content key (cellkey.Key) hashes the
// same bytes on both sides, and a distributed campaign's results are
// byte-identical to a local run under the canonical result encoding.
package remote

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"zng/internal/config"
	"zng/internal/obs"
	"zng/internal/platform"
	"zng/internal/report"
	"zng/internal/wire"
	"zng/internal/workload"
)

// PeerError marks a failure of the peer itself — unreachable,
// draining (503), or replying garbage — as opposed to a deterministic
// simulation error the peer reported. The dispatcher retries peer
// errors on another worker; simulation errors it returns as-is, since
// every peer would compute the same failure.
type PeerError struct {
	Peer string
	Err  error
}

func (e *PeerError) Error() string { return fmt.Sprintf("remote: peer %s: %v", e.Peer, e.Err) }
func (e *PeerError) Unwrap() error { return e.Err }

// DefaultTimeout bounds every individual HTTP round trip the client
// makes. A simulation cell may take arbitrarily long, but no single
// request does — Run submits asynchronously and long-polls, each
// request asking the peer to wait at most half the timeout, so a peer
// that wedges mid-cell (as opposed to refusing connections) still
// surfaces as a PeerError within one timeout instead of hanging the
// caller forever.
const DefaultTimeout = 30 * time.Second

// requestBytes sizes a request body's buffer so that encoding it
// allocates once: a cell with the Table I configuration encodes to
// about 2.1 KB.
const requestBytes = 3 << 10

// Client is one zngd peer speaking the /v1 JSON API. It implements
// the experiments/campaign Runner interface; every Run is one async
// POST /v1/run?wait=D carrying the full cell, with D half the client's
// timeout. A cell that finishes within D is answered by that one
// request; a longer one is long-polled with GET /v1/jobs/{id}?wait=D
// until a reply sees it finish. The client never sleeps between
// requests.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for a peer address ("host:port" or a
// full http:// URL).
func NewClient(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{
		base: strings.TrimRight(addr, "/"),
		hc:   &http.Client{Timeout: DefaultTimeout},
	}
}

// SetTimeout overrides the per-request timeout (tests use a short
// one to exercise hung-peer detection quickly).
func (c *Client) SetTimeout(d time.Duration) { c.hc.Timeout = d }

// Addr reports the peer's base URL.
func (c *Client) Addr() string { return c.base }

// appsArg renders a mix as zngsim/zngd ad-hoc apps syntax: the
// content ID with component separators swapped ("bfs1+gaus*1.5" ->
// "bfs1,gaus*1.5").
func appsArg(mix workload.Mix) string {
	return strings.ReplaceAll(mix.ID(), "+", ",")
}

// envelope is what the client reads of a POST /v1/run or
// GET /v1/jobs/{id} reply.
type envelope struct {
	Error string
	Job   struct {
		ID    string
		State string
		Error string
	}
	// Result is the result document's bytes, aliasing the reply body.
	Result []byte
	// Spans is the worker-side span subtree of a traced request,
	// piggybacked on the reply that observed the job finish so the
	// caller's flight recorder holds the whole cross-process tree.
	Spans []obs.Record
}

// Run implements the Runner interface against the peer: submit the
// cell asynchronously with a wait, long-poll its job if it outlasts
// the wait (every round trip bounded by the client timeout, so a
// wedged peer faults instead of hanging), and decode the canonical
// result document: the bytes a local runner would encode, whichever
// alias of the cell asked.
func (c *Client) Run(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
	r, _, err := c.run(obs.SpanContext{}, kind, mix, scale, cfg)
	return r, err
}

// RunTraced is Run carrying the caller's span context in the
// X-Zng-Trace header on the submit and every poll, so the peer
// parents its own spans (queue wait, tier lookups, simulation) under
// sc. The returned records are the peer-side span subtree piggybacked
// on the reply that saw the job finish — the caller ingests them into
// its own flight recorder to complete the cross-process tree. Spans
// may be non-empty even when err is a deterministic simulation error
// (the failing sim span is part of the story); they are empty on
// peer-level faults.
func (c *Client) RunTraced(sc obs.SpanContext, kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, []obs.Record, error) {
	return c.run(sc, kind, mix, scale, cfg)
}

func (c *Client) run(sc obs.SpanContext, kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, []obs.Record, error) {
	req := RunRequest{Platform: kind.String(), Apps: appsArg(mix), Scale: scale, Async: true, Config: &cfg}
	body, err := req.AppendJSON(make([]byte, 0, requestBytes))
	if err != nil {
		return platform.Result{}, nil, fmt.Errorf("remote: encoding request: %w", err)
	}
	// The peer holds each request until the job finishes or the wait
	// runs out, whichever is first; half the timeout leaves the reply
	// the other half to arrive.
	wait := c.hc.Timeout / 2
	if wait <= 0 {
		wait = DefaultTimeout / 2
	}
	query := "?wait=" + wait.String()
	resp, err := c.post(sc, "/v1/run"+query, body)
	if err != nil {
		return platform.Result{}, nil, &PeerError{Peer: c.base, Err: err}
	}
	env, err := readEnvelope(resp)
	if err != nil {
		return platform.Result{}, nil, &PeerError{Peer: c.base, Err: err}
	}
	if (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted) || env.Job.ID == "" {
		// 503 (draining), 4xx against this client's own request shape,
		// or anything else unexpected: a peer-level fault the
		// dispatcher can route around.
		return platform.Result{}, nil, &PeerError{Peer: c.base, Err: fmt.Errorf("submit status %d: %s", resp.StatusCode, errText(env))}
	}
	// 200: the job finished within the submit's wait and the reply
	// carries its outcome. 202: long-poll it with the same wait until
	// a reply sees it finish.
	for resp.StatusCode == http.StatusAccepted || !finished(env.Job.State) {
		if resp, err = c.get(sc, "/v1/jobs/"+env.Job.ID+query); err != nil {
			return platform.Result{}, nil, &PeerError{Peer: c.base, Err: err}
		}
		if env, err = readEnvelope(resp); err != nil {
			return platform.Result{}, nil, &PeerError{Peer: c.base, Err: err}
		}
		if resp.StatusCode != http.StatusOK {
			// Includes an evicted job id (404): the cell's outcome is
			// no longer observable here, so let the dispatcher re-route.
			return platform.Result{}, nil, &PeerError{Peer: c.base, Err: fmt.Errorf("poll status %d: %s", resp.StatusCode, errText(env))}
		}
	}
	if env.Job.State == "error" {
		// The peer ran the cell and the simulation itself failed —
		// deterministic, so another peer would only repeat it.
		return platform.Result{}, env.Spans, fmt.Errorf("remote: simulation failed on %s: %s", c.base, env.Job.Error)
	}
	r, err := report.DecodeResult(env.Result)
	if err != nil {
		return platform.Result{}, nil, &PeerError{Peer: c.base, Err: err}
	}
	return r, env.Spans, nil
}

// finished reports whether a job state is terminal.
func finished(state string) bool { return state == "done" || state == "error" }

// post issues one POST with the trace header attached when sc is
// valid.
func (c *Client) post(sc obs.SpanContext, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if sc.Valid() {
		req.Header.Set(obs.Header, sc.Encode())
	}
	return c.hc.Do(req)
}

// get issues one GET with the trace header attached when sc is valid.
func (c *Client) get(sc obs.SpanContext, path string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	if sc.Valid() {
		req.Header.Set(obs.Header, sc.Encode())
	}
	return c.hc.Do(req)
}

// readEnvelope reads one reply to EOF and parses it; an undecodable
// body (proxy page, truncated reply) is an error whatever the status
// code said.
func readEnvelope(resp *http.Response) (envelope, error) {
	defer resp.Body.Close()
	body, err := wire.ReadAll(resp.Body, resp.ContentLength)
	if err != nil {
		return envelope{}, fmt.Errorf("reading reply (status %d): %w", resp.StatusCode, err)
	}
	env, err := parseEnvelope(body)
	if err != nil {
		return env, fmt.Errorf("undecodable reply (status %d): %w", resp.StatusCode, err)
	}
	return env, nil
}

// parseEnvelope reads a reply in one pass, as json.Decoder read it
// into the envelope's fields before: keys match exactly or else under
// case folding, unknown keys and nulls are skipped, a repeated key
// applies again, and a known key with a value of the wrong type is an
// error. The result document is only delimited: its bytes go to
// report.DecodeResult untouched. Spans, present only on traced replies,
// decode with encoding/json. Only whitespace may follow the object.
func parseEnvelope(b []byte) (envelope, error) {
	var (
		env envelope
		d   wire.Decoder
	)
	d.Reset(b)
	for more := d.Object(); more; more = d.More() {
		key := d.Key()
		switch {
		case wire.KeyIs(key, "error"):
			readString(&d, &env.Error)
		case wire.KeyIs(key, "job"):
			if d.Null() {
				break
			}
			for more := d.Object(); more; more = d.More() {
				key := d.Key()
				switch {
				case wire.KeyIs(key, "id"):
					readString(&d, &env.Job.ID)
				case wire.KeyIs(key, "state"):
					readString(&d, &env.Job.State)
				case wire.KeyIs(key, "error"):
					readString(&d, &env.Job.Error)
				default:
					d.Skip()
				}
			}
		case wire.KeyIs(key, "result"):
			env.Result = d.Value()
		case wire.KeyIs(key, "spans"):
			if v := d.Value(); d.Err() == nil {
				if err := json.Unmarshal(v, &env.Spans); err != nil {
					return env, err
				}
			}
		default:
			d.Skip()
		}
	}
	d.End()
	return env, d.Err()
}

func errText(env envelope) string {
	if env.Error != "" {
		return env.Error
	}
	return "no error body"
}
