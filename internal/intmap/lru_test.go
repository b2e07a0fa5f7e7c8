package intmap

import (
	"testing"

	"zng/internal/rng"
)

// TestLRUDifferential drives the index, with slots reserved up front
// and cut on demand, and a per-set stamp reference in lockstep through
// random hits, inserts into full sets and deletes, checking every
// lookup, payload and victim. Unique stamps make the reference's
// oldest entry exactly each set's LRU.
func TestLRUDifferential(t *testing.T) {
	type entry struct {
		stamp int
		val   uint32
	}
	for _, reserve := range []bool{true, false} {
		for _, g := range []struct{ sets, ways int }{{1, 1}, {1, 64}, {4, 3}, {16, 8}} {
			l := NewLRU[uint32](g.sets, g.ways, reserve)
			ref := make([]map[uint64]entry, g.sets)
			for s := range ref {
				ref[s] = map[uint64]entry{}
			}
			r := rng.New(uint64(g.sets*100 + g.ways))
			keys, held := uint64(g.sets*g.ways*3), 0
			for op := 0; op < 20000; op++ {
				key := r.Uint64n(keys) * 4096
				s := int(key / 4096 % uint64(g.sets))
				if r.Intn(8) == 0 {
					l.Delete(s, key)
					if _, ok := ref[s][key]; ok {
						delete(ref[s], key)
						held--
					}
					continue
				}
				val := uint32(r.Uint64())
				slot, ok := l.Get(key)
				want, wok := ref[s][key]
				if ok != wok {
					t.Fatalf("%dx%d reserve=%v op %d: Get(%#x) present %v, reference %v", g.sets, g.ways, reserve, op, key, ok, wok)
				}
				switch {
				case ok:
					if *l.Val(slot) != want.val {
						t.Fatalf("%dx%d reserve=%v op %d: payload %d, reference %d", g.sets, g.ways, reserve, op, *l.Val(slot), want.val)
					}
					l.Touch(s, slot)
					*l.Val(slot) = val
				case l.Full(s):
					victim, v := l.Evict(s)
					oldest := uint64(0)
					first := true
					for k, e := range ref[s] {
						if first || e.stamp < ref[s][oldest].stamp {
							oldest, first = k, false
						}
					}
					if victim != oldest || v != ref[s][oldest].val {
						t.Fatalf("%dx%d reserve=%v op %d: evicted %#x (%d), reference %#x (%d)", g.sets, g.ways, reserve, op, victim, v, oldest, ref[s][oldest].val)
					}
					delete(ref[s], oldest)
					held--
					fallthrough
				default:
					l.Insert(s, key, val)
					held++
				}
				ref[s][key] = entry{op, val}
				if l.Len() != held {
					t.Fatalf("%dx%d reserve=%v op %d: Len %d, reference %d", g.sets, g.ways, reserve, op, l.Len(), held)
				}
			}
		}
	}
}

// A reserved index never grows, and an on-demand one holds only the
// slots its sets have used.
func TestLRUFootprint(t *testing.T) {
	reserved := NewLRU[struct{}](1, 64, true)
	before := reserved.StateBytes()
	for k := uint64(0); k < 200; k++ {
		if reserved.Full(0) {
			reserved.Evict(0)
		}
		reserved.Insert(0, k, struct{}{})
	}
	if reserved.StateBytes() != before || before != 64*16+16+New(64).StateBytes() {
		t.Fatalf("reserved 1x64 index: %d B before inserts and %d after, want %d both",
			before, reserved.StateBytes(), 64*16+16+New(64).StateBytes())
	}
	lazy := NewLRU[uint64](1024, 8, false)
	empty := lazy.StateBytes()
	for k := uint64(0); k < 10; k++ {
		lazy.Insert(int(k), k, k)
	}
	if empty > 1024*16+64 || lazy.StateBytes() > empty+1024 {
		t.Fatalf("on-demand 1024x8 index: %d B empty, %d B with 10 keys", empty, lazy.StateBytes())
	}
}
