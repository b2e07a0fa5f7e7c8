package ssd

import (
	"testing"

	"zng/internal/intmap"
	"zng/internal/rng"
)

// refPageBuffer is the map-backed buffer the dense one replaced: LRU by
// timestamp, with eviction scanning every entry for the oldest stamp.
type refPageBuffer struct {
	cap     int
	clock   uint64
	entries map[uint64]*refBufEntry
}

type refBufEntry struct {
	stamp uint64
	dirty bool
}

func (b *refPageBuffer) touch(page uint64, write bool) bool {
	e, ok := b.entries[page]
	if !ok {
		return false
	}
	b.clock++
	e.stamp = b.clock
	if write {
		e.dirty = true
	}
	return true
}

func (b *refPageBuffer) insert(page uint64, dirty bool) (victim uint64, victimDirty, evicted bool) {
	b.clock++
	if e, ok := b.entries[page]; ok {
		e.stamp = b.clock
		e.dirty = e.dirty || dirty
		return 0, false, false
	}
	if len(b.entries) >= b.cap {
		oldest := ^uint64(0)
		for p, e := range b.entries {
			if e.stamp < oldest {
				oldest = e.stamp
				victim = p
			}
		}
		victimDirty = b.entries[victim].dirty
		delete(b.entries, victim)
		evicted = true
	}
	b.entries[page] = &refBufEntry{stamp: b.clock, dirty: dirty}
	return victim, victimDirty, evicted
}

// TestPageBufferDifferential drives the module's buffer (touch and
// insert over its intmap.LRU) and the map-backed reference in lockstep
// through random hits, write hits and inserts; every hit, victim,
// victim dirtiness and the resident set must agree.
func TestPageBufferDifferential(t *testing.T) {
	for _, capacity := range []int{1, 2, 5, 64} {
		buf := intmap.NewLRU[bool](1, capacity, false)
		ref := &refPageBuffer{cap: capacity, entries: map[uint64]*refBufEntry{}}
		r := rng.New(uint64(capacity))
		pages := uint64(capacity*3 + 2)
		for op := 0; op < 20000; op++ {
			page := r.Uint64n(pages) * 4096
			write := r.Intn(4) == 0
			if r.Intn(2) == 0 {
				if got, want := touch(buf, page, write), ref.touch(page, write); got != want {
					t.Fatalf("cap %d op %d: touch(%#x) = %v, reference %v", capacity, op, page, got, want)
				}
				continue
			}
			v, vd, ev := insert(buf, page, write)
			rv, rvd, rev := ref.insert(page, write)
			if v != rv || vd != rvd || ev != rev {
				t.Fatalf("cap %d op %d: insert(%#x) = (%#x,%v,%v), reference (%#x,%v,%v)",
					capacity, op, page, v, vd, ev, rv, rvd, rev)
			}
			if buf.Len() != len(ref.entries) {
				t.Fatalf("cap %d op %d: Len = %d, reference %d", capacity, op, buf.Len(), len(ref.entries))
			}
		}
		for p := uint64(0); p < pages; p++ {
			_, inRef := ref.entries[p*4096]
			if _, inBuf := buf.Get(p * 4096); inBuf != inRef {
				t.Fatalf("cap %d: page %d residency diverged (buffer %v, ref %v)", capacity, p, inBuf, inRef)
			}
		}
	}
}
