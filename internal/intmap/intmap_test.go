package intmap

import (
	"testing"

	"zng/internal/rng"
)

// TestMapDifferential drives the index and a Go map in lockstep
// through random puts, overwrites and deletes over a small key space
// (so probe runs collide and wrap), checking every lookup.
func TestMapDifferential(t *testing.T) {
	for _, capacity := range []int{0, 1, 7, 64} {
		m := New(capacity)
		ref := map[uint64]int32{}
		r := rng.New(uint64(capacity) + 1)
		for op := 0; op < 20000; op++ {
			key := r.Uint64n(97) * 0x1000 // page-like keys
			switch r.Intn(3) {
			case 0:
				v := int32(r.Intn(1 << 20))
				m.Put(key, v)
				ref[key] = v
			case 1:
				m.Delete(key)
				delete(ref, key)
			}
			got, ok := m.Get(key)
			want, wok := ref[key]
			if ok != wok || got != want {
				t.Fatalf("cap %d op %d: Get(%#x) = %d,%v, reference %d,%v", capacity, op, key, got, ok, want, wok)
			}
			if m.Len() != len(ref) {
				t.Fatalf("cap %d op %d: Len = %d, reference %d", capacity, op, m.Len(), len(ref))
			}
		}
		for key, want := range ref {
			if got, ok := m.Get(key); !ok || got != want {
				t.Fatalf("cap %d: final Get(%#x) = %d,%v, want %d", capacity, key, got, ok, want)
			}
		}
	}
}

// A map sized for its bound never grows, so its footprint is fixed.
func TestMapSizedNeverGrows(t *testing.T) {
	m := New(100)
	before := m.StateBytes()
	for k := uint64(0); k < 100; k++ {
		m.Put(k, int32(k))
	}
	if m.StateBytes() != before {
		t.Fatalf("StateBytes grew from %d to %d within capacity", before, m.StateBytes())
	}
	for k := uint64(100); k < 1000; k++ {
		m.Put(k, int32(k))
	}
	if m.StateBytes() <= before {
		t.Fatal("map did not grow past its capacity")
	}
	for k := uint64(0); k < 1000; k++ {
		if v, ok := m.Get(k); !ok || v != int32(k) {
			t.Fatalf("after growth Get(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestMapOpsAllocFree(t *testing.T) {
	m := New(64)
	allocs := testing.AllocsPerRun(100, func() {
		for k := uint64(0); k < 64; k++ {
			m.Put(k*4096, int32(k))
		}
		for k := uint64(0); k < 64; k++ {
			if _, ok := m.Get(k * 4096); !ok {
				t.Fatal("missing key")
			}
			m.Delete(k * 4096)
		}
	})
	if allocs != 0 {
		t.Fatalf("put/get/delete allocated %.1f times per run, want 0", allocs)
	}
}
