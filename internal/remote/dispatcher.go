package remote

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"zng/internal/config"
	"zng/internal/obs"
	"zng/internal/platform"
	"zng/internal/workload"
)

// ErrNoPeers is returned by Run when the dispatcher has no peers at
// all — the empty-fleet state a dynamic dispatcher (NewDynamic) may
// pass through while workers register and expire. Callers with a
// local execution path (the fleet coordinator) treat it as "run the
// cell yourself".
var ErrNoPeers = errors.New("remote: dispatcher has no peers")

// Dispatcher shards simulation cells across a fleet of zngd peers.
// It implements the same Runner interface as a single Client, so a
// campaign Executor (or any figure driver) fans out over the fleet
// without knowing it: each Run picks the healthy peer with the
// fewest cells in flight — locality-free work stealing, since cells
// are content-addressed and any peer can serve any cell — and a
// peer-level failure (connection refused, draining, garbage reply)
// re-routes the cell to another peer while the faulty one sits out a
// cooldown. Deterministic simulation errors reported by a peer are
// returned as-is: every worker would compute the same failure.
//
// Membership is dynamic: AddPeer and RemovePeer grow and shrink the
// fleet under running campaigns (the fleet coordinator wires them to
// worker registration and heartbeat expiry), and cells in flight on
// a removed peer fault on their next round trip and re-route to a
// surviving one — counted by Reassigned.
type Dispatcher struct {
	cooldown time.Duration
	timeout  time.Duration // applied to peers added later, too
	// tr records a peer span per dispatch attempt and ingests the
	// worker-side spans piggybacked on replies. Set once via SetTracer
	// before the dispatcher serves traffic; nil dispatches untraced.
	tr *obs.Tracer

	mu sync.Mutex
	// peers is the current membership, in registration order.
	// guarded by mu.
	peers []*peer
	// rr rotates the scan origin so equal-inflight ties round-robin
	// across the fleet instead of always landing on the first peer —
	// without it, fully serialized execution (every cell finishing
	// before the next dispatch) would starve every peer but peers[0].
	// guarded by mu.
	rr int
	// reassigned counts peer-level faults whose cell went back to the
	// scheduling loop for another peer — the fleet's "cells
	// reassigned" gauge. guarded by mu.
	reassigned uint64
}

// peer is one worker plus its scheduling state. The scheduling
// fields belong to the dispatcher's lock domain, not the peer's own.
type peer struct {
	client   *Client
	inflight int       // guarded by Dispatcher.mu
	downTil  time.Time // guarded by Dispatcher.mu
}

// DefaultCooldown is how long a failed peer sits out before the
// dispatcher offers it work again.
const DefaultCooldown = 5 * time.Second

// NewDispatcher builds a dispatcher over peer addresses ("host:port"
// or http:// URLs). cooldown <= 0 uses DefaultCooldown.
func NewDispatcher(addrs []string, cooldown time.Duration) (*Dispatcher, error) {
	if len(addrs) == 0 {
		return nil, errors.New("remote: dispatcher needs at least one peer")
	}
	d := NewDynamic(cooldown)
	for _, a := range addrs {
		d.AddPeer(a)
	}
	return d, nil
}

// NewDynamic builds an empty dispatcher whose membership grows and
// shrinks at runtime (AddPeer/RemovePeer). With no peers, Run fails
// fast with ErrNoPeers. cooldown <= 0 uses DefaultCooldown.
func NewDynamic(cooldown time.Duration) *Dispatcher {
	if cooldown <= 0 {
		cooldown = DefaultCooldown
	}
	return &Dispatcher{cooldown: cooldown}
}

// AddPeer joins a peer to the fleet (idempotent: re-adding an address
// already present only clears its failure cooldown, so a re-registered
// worker is offered work immediately). Cells of campaigns already
// running dispatch to it on their next pick.
func (d *Dispatcher) AddPeer(addr string) {
	c := NewClient(addr)
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, p := range d.peers {
		if p.client.Addr() == c.Addr() {
			p.downTil = time.Time{}
			return
		}
	}
	if d.timeout > 0 {
		c.SetTimeout(d.timeout)
	}
	d.peers = append(d.peers, &peer{client: c})
}

// RemovePeer drops a peer from the fleet (by the same address form
// AddPeer accepted). Cells already in flight on it are not aborted:
// they fault on their own next round trip and the scheduling loop
// reassigns them to surviving peers.
func (d *Dispatcher) RemovePeer(addr string) {
	want := NewClient(addr).Addr()
	d.mu.Lock()
	defer d.mu.Unlock()
	keep := d.peers[:0]
	for _, p := range d.peers {
		if p.client.Addr() == want {
			continue
		}
		keep = append(keep, p)
	}
	for i := len(keep); i < len(d.peers); i++ {
		d.peers[i] = nil
	}
	d.peers = keep
}

// Reassigned reports how many peer-level faults sent a cell back for
// another peer — the fleet's rebalancing gauge.
func (d *Dispatcher) Reassigned() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reassigned
}

// SetTracer wires a tracer into the dispatcher: traced runs
// (RunTraced) record one "peer" span per attempt and ingest the
// worker-side spans each peer piggybacks on its replies. Call before
// the dispatcher serves traffic.
func (d *Dispatcher) SetTracer(t *obs.Tracer) { d.tr = t }

// SetTimeout overrides every peer client's per-request timeout,
// including peers added later.
func (d *Dispatcher) SetTimeout(t time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.timeout = t
	for _, p := range d.peers {
		p.client.SetTimeout(t)
	}
}

// pick selects the untried peer with the fewest cells in flight,
// preferring peers not in cooldown; when only cooled-down peers
// remain untried it offers them anyway (they may have recovered, and
// refusing would strand the cell). Equal-inflight ties round-robin
// via the rotating scan origin. It returns nil once every peer has
// been tried for this cell.
func (d *Dispatcher) pick(tried map[*peer]bool) *peer {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := time.Now()
	n := len(d.peers)
	if n == 0 {
		return nil
	}
	start := d.rr % n
	d.rr++
	var best *peer
	bestDown := false
	for i := 0; i < n; i++ {
		p := d.peers[(start+i)%n]
		if tried[p] {
			continue
		}
		down := now.Before(p.downTil)
		switch {
		case best == nil,
			bestDown && !down,
			bestDown == down && p.inflight < best.inflight:
			best, bestDown = p, down
		}
	}
	if best != nil {
		best.inflight++
	}
	return best
}

// Run implements the Runner interface over the fleet: try peers in
// least-loaded order until one answers, marking each peer-level
// failure down for the cooldown. The cell fails only when every peer
// has faulted on it (the joined error names them all) or a peer
// reports a deterministic simulation error. An empty fleet fails
// fast with ErrNoPeers.
func (d *Dispatcher) Run(kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
	return d.run(obs.SpanContext{}, kind, mix, scale, cfg)
}

// RunTraced is Run under the caller's span context: each dispatch
// attempt records a "peer" span (detail: the peer's address) and the
// worker's own spans come back piggybacked and land in this
// dispatcher's tracer, so a cell that hopped workers after a fault
// still reads as one tree. It implements campaign.TracedRunner.
func (d *Dispatcher) RunTraced(sc obs.SpanContext, kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
	return d.run(sc, kind, mix, scale, cfg)
}

func (d *Dispatcher) run(sc obs.SpanContext, kind platform.Kind, mix workload.Mix, scale float64, cfg config.Config) (platform.Result, error) {
	traced := d.tr != nil && sc.Valid()
	tried := map[*peer]bool{}
	var faults []error
	for {
		p := d.pick(tried)
		if p == nil {
			if len(faults) == 0 {
				return platform.Result{}, ErrNoPeers
			}
			return platform.Result{}, fmt.Errorf("remote: all %d peers failed: %w", len(faults), errors.Join(faults...))
		}
		tried[p] = true
		var res platform.Result
		var err error
		if traced {
			span := d.tr.StartSpan(sc, "peer", p.client.Addr())
			var spans []obs.Record
			res, spans, err = p.client.RunTraced(span.Context(), kind, mix, scale, cfg)
			d.tr.Ingest(spans)
			span.EndErr(err)
		} else {
			res, err = p.client.Run(kind, mix, scale, cfg)
		}
		d.mu.Lock()
		p.inflight--
		var pe *PeerError
		switch {
		case err == nil:
			d.mu.Unlock()
			return res, nil
		case errors.As(err, &pe):
			p.downTil = time.Now().Add(d.cooldown)
			// The cell goes back to the scheduling loop for another
			// peer — the fleet-level rebalancing event.
			d.reassigned++
			d.mu.Unlock()
			faults = append(faults, err)
		default:
			// A simulation error: deterministic, not the peer's fault.
			d.mu.Unlock()
			return platform.Result{}, err
		}
	}
}
