// Package restier is the serving hot path's result tier: an
// in-memory, capacity-bounded LRU of decoded result documents keyed
// by the content address of their simulation cell (internal/cellkey),
// fronting the persistent disk store (internal/store) the way the
// FlashX/SAFS page cache fronts SSD-resident graph data — a light
// memory tier over slow stable storage that magnifies serving
// throughput for the hot working set.
//
// The tier never changes what is served, only where from: every entry
// is the exact platform.Result the store (or a fresh simulation)
// produced, so a cell answered from memory, from disk, or by
// simulating encodes byte-identically (report.EncodeResult) at every
// tier — the determinism contract the whole store design leans on.
// Lookups resolve memory first, then disk (a disk hit is promoted
// into the memory tier read-through), and report which tier answered
// so the serving layer can account mem_hits/disk_hits/evictions. A
// memory hit saves the file read and report.DecodeResult's one pass
// over the document; either way the serving layer encodes the result
// once per reply.
package restier

import (
	"sync"

	"zng/internal/platform"
	"zng/internal/store"
)

// CacheStats counts how the memory tier behaved. Counters only grow;
// Entries/Capacity/Negatives are gauges.
type CacheStats struct {
	// Hits counts Gets answered from memory (positive or negative).
	Hits uint64
	// Misses counts Gets the memory tier could not answer.
	Misses uint64
	// Evictions counts entries dropped to make room at capacity.
	Evictions uint64
	// Entries is the current resident entry count (≤ Capacity),
	// negative entries included.
	Entries int
	// Negatives is the resident negative-entry count (≤ Entries).
	Negatives int
	// Capacity is the configured bound.
	Capacity int
}

// Negative is a cached deterministic simulation failure. A simulation
// is a pure function of its cell, so a cell that failed once fails
// identically forever (apps exceeding SMs, a degenerate
// configuration): re-simulating it on every request only burns a
// worker. The tier caches the failure as a typed entry whose message
// is exactly the original error text, so repeat requests are served
// from memory and callers can still tell a cached failure from a
// fresh one with errors.As.
type Negative struct {
	// Msg is the original error's text, replayed verbatim.
	Msg string
}

func (e *Negative) Error() string { return e.Msg }

// entry is one resident cell, a node of the intrusive LRU list. err
// is nil for result entries and a *Negative for cached failures
// (whose res is the zero Result).
type entry struct {
	key        string
	res        platform.Result
	err        error
	prev, next *entry
}

// Cache is a concurrency-safe LRU of decoded result documents keyed
// by cell content address. A Get promotes its entry to
// most-recently-used; a Put past capacity evicts the least-recently
// used entry. All methods are O(1).
type Cache struct {
	mu    sync.Mutex
	cap   int
	items map[string]*entry // guarded by mu
	// head/tail delimit the recency list: head is most recent, tail
	// least. Both are nil when empty. guarded by mu.
	head, tail *entry
	hits       uint64 // guarded by mu
	misses     uint64 // guarded by mu
	evictions  uint64 // guarded by mu
	negatives  int    // guarded by mu
}

// NewCache returns an LRU bounded to capacity entries. Capacity must
// be positive; sizing is in entries, not bytes, because result
// documents are small and near-uniform (a flat struct plus a bounded
// extras map).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		panic("restier: cache capacity must be positive")
	}
	return &Cache{cap: capacity, items: make(map[string]*entry, capacity)}
}

// Get returns the entry for key and promotes it to most-recently-used.
// A cached failure comes back as a non-nil *Negative error with ok
// true; the zero Result with ok false is a miss.
func (c *Cache) Get(key string) (platform.Result, error, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		c.misses++
		return platform.Result{}, nil, false
	}
	c.hits++
	c.moveToFrontLocked(e)
	return e.res, e.err, true
}

// Put inserts (or refreshes) the entry for key as most-recently-used,
// evicting the least-recently-used entry if the cache is full. A Put
// over a negative entry converts it to a result entry.
func (c *Cache) Put(key string, res platform.Result) {
	c.put(key, res, nil)
}

// PutNegative caches a deterministic failure for key: later Gets for
// the same cell replay the error without simulating. Negative entries
// live only in the memory tier — they obey the same LRU bound and
// eviction as result entries, and never reach the disk store.
func (c *Cache) PutNegative(key, msg string) {
	c.put(key, platform.Result{}, &Negative{Msg: msg})
}

// put is the shared insert path behind Put and PutNegative.
func (c *Cache) put(key string, res platform.Result, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		if (e.err != nil) != (err != nil) {
			if err != nil {
				c.negatives++
			} else {
				c.negatives--
			}
		}
		e.res, e.err = res, err
		c.moveToFrontLocked(e)
		return
	}
	if len(c.items) >= c.cap {
		lru := c.tail
		c.unlinkLocked(lru)
		delete(c.items, lru.key)
		if lru.err != nil {
			c.negatives--
		}
		c.evictions++
	}
	e := &entry{key: key, res: res, err: err}
	c.items[key] = e
	c.pushFrontLocked(e)
	if err != nil {
		c.negatives++
	}
}

// Len reports the resident entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Stats snapshots the counters and gauges.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.items),
		Negatives: c.negatives,
		Capacity:  c.cap,
	}
}

// keysLRU returns the resident keys least-recent first — test and
// diagnostics helper, O(n).
func (c *Cache) keysLRU() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.items))
	for e := c.tail; e != nil; e = e.prev {
		keys = append(keys, e.key)
	}
	return keys
}

// moveToFrontLocked promotes e to most-recently-used. Caller holds mu.
func (c *Cache) moveToFrontLocked(e *entry) {
	if c.head == e {
		return
	}
	c.unlinkLocked(e)
	c.pushFrontLocked(e)
}

// unlinkLocked removes e from the recency list. Caller holds mu.
func (c *Cache) unlinkLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFrontLocked inserts e at the most-recent end. Caller holds mu.
func (c *Cache) pushFrontLocked(e *entry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// Tier names which layer answered a lookup.
type Tier int

const (
	// TierNone: no tier holds the cell; the caller must simulate.
	TierNone Tier = iota
	// TierMemory: answered by the in-memory LRU.
	TierMemory
	// TierDisk: answered by the persistent store (and promoted into
	// memory).
	TierDisk
)

// String names the tier the way job sources and metrics spell it.
func (t Tier) String() string {
	switch t {
	case TierMemory:
		return "memory"
	case TierDisk:
		return "disk"
	}
	return "none"
}

// Tiered composes the memory tier over the persistent store. Either
// layer may be absent (a nil-cache Tiered is disk-only; a nil-store
// Tiered is memory-only), so the serving layer configures tiers
// without branching at every lookup.
type Tiered struct {
	cache *Cache       // nil: no memory tier
	st    *store.Store // nil: no disk tier
}

// NewTiered builds the tier stack: a memory LRU of capacity entries
// (0 disables the memory tier) over st (nil disables the disk tier).
func NewTiered(capacity int, st *store.Store) *Tiered {
	t := &Tiered{st: st}
	if capacity > 0 {
		t.cache = NewCache(capacity)
	}
	return t
}

// Get resolves key memory-first, then disk. A disk hit is promoted
// into the memory tier so the next lookup stays off the disk. The
// returned Tier says which layer answered (TierNone on a full miss);
// a memory hit may carry a cached failure as a non-nil *Negative
// error (only the memory tier holds negatives — the disk store keeps
// results exclusively).
func (t *Tiered) Get(key string) (platform.Result, error, Tier) {
	if r, err, ok := t.GetMem(key); ok {
		return r, err, TierMemory
	}
	if t.st != nil {
		if r, ok := t.st.Get(key); ok {
			if t.cache != nil {
				t.cache.Put(key, r)
			}
			return r, nil, TierDisk
		}
	}
	return platform.Result{}, nil, TierNone
}

// GetMem consults only the memory tier — the non-blocking lookup the
// admission path uses (a disk read must never run under the service
// lock).
func (t *Tiered) GetMem(key string) (platform.Result, error, bool) {
	if t.cache == nil {
		return platform.Result{}, nil, false
	}
	return t.cache.Get(key)
}

// Put writes key through every present tier and reports whether the
// disk tier has it (false with no store, or when the store write
// failed — the memory tier still serves the entry either way, it just
// cannot outlive the process).
func (t *Tiered) Put(key string, res platform.Result) bool {
	persisted := false
	if t.st != nil {
		persisted = t.st.Put(key, res) == nil
	}
	if t.cache != nil {
		t.cache.Put(key, res)
	}
	return persisted
}

// PutNegative caches a deterministic failure in the memory tier (a
// no-op without one). Negatives never reach the disk store: an error
// string is cheap to recompute relative to a simulation and must not
// pollute the content-addressed result layout, so a restart simply
// rediscovers the failure once.
func (t *Tiered) PutNegative(key, msg string) {
	if t.cache != nil {
		t.cache.PutNegative(key, msg)
	}
}

// Store exposes the disk tier (nil when memory-only).
func (t *Tiered) Store() *store.Store { return t.st }

// CacheStats snapshots the memory tier's counters (zero-valued with
// no memory tier, so /metrics can always publish the gauges).
func (t *Tiered) CacheStats() CacheStats {
	if t.cache == nil {
		return CacheStats{}
	}
	return t.cache.Stats()
}
