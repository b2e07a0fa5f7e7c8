package mmu

import (
	"testing"

	"zng/internal/config"
	"zng/internal/rng"
	"zng/internal/sim"
)

// refTLB is the map-backed fully-associative LRU buffer the dense
// set-associative tlb replaced — kept as the differential-test
// reference. Unique monotonic stamps make its argmin victim exact
// LRU, so its observable behavior is deterministic despite the map.
type refTLB struct {
	cap     int
	clock   uint64
	entries map[uint64]uint64
}

func newRefTLB(capacity int) *refTLB {
	return &refTLB{cap: capacity, entries: make(map[uint64]uint64, capacity)}
}

func (t *refTLB) lookup(page uint64) bool {
	if _, ok := t.entries[page]; !ok {
		return false
	}
	t.clock++
	t.entries[page] = t.clock
	return true
}

func (t *refTLB) insert(page uint64) {
	t.clock++
	if len(t.entries) >= t.cap {
		var victim uint64
		oldest := ^uint64(0)
		for p, s := range t.entries {
			if s < oldest {
				oldest = s
				victim = p
			}
		}
		delete(t.entries, victim)
	}
	t.entries[page] = t.clock
}

func (t *refTLB) invalidate(page uint64) { delete(t.entries, page) }

// TestTLBDifferential drives the dense tlb and the map reference in
// lockstep through randomized lookup/insert/invalidate streams at
// several capacities, asserting every lookup agrees — including the
// capacity-1 and re-insert-at-capacity corner cases the replacement
// policy encodes.
func TestTLBDifferential(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 64, 257} {
		r := rng.New(uint64(0xD1F + capacity))
		dense := newTLB(capacity)
		ref := newRefTLB(capacity)
		pages := uint64(capacity)*3 + 1
		for op := 0; op < 20000; op++ {
			page := r.Uint64n(pages)
			switch r.Uint64n(10) {
			case 0:
				dense.invalidate(page)
				ref.invalidate(page)
			case 1, 2:
				dense.insert(page)
				ref.insert(page)
			default:
				got, want := dense.lookup(page), ref.lookup(page)
				if got != want {
					t.Fatalf("cap %d op %d: lookup(%d) = %v, reference says %v",
						capacity, op, page, got, want)
				}
				if !got {
					dense.insert(page)
					ref.insert(page)
				}
			}
		}
		// Final-state equivalence: exactly the same resident set.
		for p := uint64(0); p < pages; p++ {
			_, inRef := ref.entries[p]
			if _, inDense := dense.idx.Get(p); inDense != inRef {
				t.Fatalf("cap %d: page %d residency diverged (dense %v, ref %v)",
					capacity, p, inDense, inRef)
			}
		}
	}
}

// TestSetAssocTLBDifferential checks the genuinely set-associative
// geometries against a per-set reference model: each set must behave
// as an independent fully-associative LRU buffer over the pages that
// map to it.
func TestSetAssocTLBDifferential(t *testing.T) {
	for _, geom := range []struct{ sets, ways int }{{2, 1}, {2, 8}, {4, 16}, {8, 3}} {
		r := rng.New(uint64(geom.sets*100 + geom.ways))
		dense := newSetAssocTLB(geom.sets, geom.ways)
		refs := make([]*refTLB, geom.sets)
		for s := range refs {
			refs[s] = newRefTLB(geom.ways)
		}
		pages := uint64(geom.sets*geom.ways) * 3
		for op := 0; op < 20000; op++ {
			page := r.Uint64n(pages)
			ref := refs[page%uint64(geom.sets)]
			switch r.Uint64n(10) {
			case 0:
				dense.invalidate(page)
				ref.invalidate(page)
			default:
				got, want := dense.lookup(page), ref.lookup(page)
				if got != want {
					t.Fatalf("%dx%d op %d: lookup(%d) = %v, reference says %v",
						geom.sets, geom.ways, op, page, got, want)
				}
				if !got {
					dense.insert(page)
					ref.insert(page)
				}
			}
		}
	}
}

// TestUnitCountersDifferential replays a randomized translation
// stream through a real Unit (requests serialized so in-flight walks
// cannot reorder inserts) and mirrors the decision tree over
// reference TLBs, asserting the hit/miss/walk counters agree — the
// counters every figure's TLBHitRate column is built from.
func TestUnitCountersDifferential(t *testing.T) {
	eng := sim.NewEngine()
	cfg := config.Default().MMU
	cfg.L1TLBEntries = 4
	cfg.WalkCacheEnt = 8
	u := New(eng, cfg, 2, 100)

	l1 := []*refTLB{newRefTLB(4), newRefTLB(4)}
	walk := newRefTLB(8)
	var wantL1Hits, wantL1Misses, wantWalkHits, wantWalks uint64

	r := rng.New(42)
	for op := 0; op < 5000; op++ {
		sm := int(r.Uint64n(2))
		va := r.Uint64n(64) * PageBytes
		page := va / PageBytes
		done := false
		translate(u, sm, va, func(uint64) { done = true })
		eng.Run()
		if !done {
			t.Fatalf("op %d: translation never completed", op)
		}
		switch {
		case l1[sm].lookup(page):
			wantL1Hits++
		case func() bool { wantL1Misses++; return walk.lookup(page) }():
			wantWalkHits++
			l1[sm].insert(page)
		default:
			wantWalks++
			walk.insert(page)
			l1[sm].insert(page)
		}
	}
	if u.L1Hits.Value() != wantL1Hits || u.L1Misses.Value() != wantL1Misses ||
		u.WalkCacheHits.Value() != wantWalkHits || u.Walks.Value() != wantWalks {
		t.Fatalf("counters diverged: unit (h=%d m=%d wc=%d w=%d), reference (h=%d m=%d wc=%d w=%d)",
			u.L1Hits.Value(), u.L1Misses.Value(), u.WalkCacheHits.Value(), u.Walks.Value(),
			wantL1Hits, wantL1Misses, wantWalkHits, wantWalks)
	}
}
