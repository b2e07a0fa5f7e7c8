// Package intmap is the simulator's one open-addressed hash index from
// uint64 keys (pages, line addresses) to small int32 values (slot
// numbers in a component's dense arrays). The hot-path tables of the
// model — cache MSHRs, flash-sense merging, the flash block index —
// keep their state in dense slot arrays and resolve keys through it
// instead of a Go map: no per-entry allocation, no hashing of
// interface keys, and no iteration, so no map-order nondeterminism can
// reach a result. LRU adds exact per-set least-recently-used order
// over such slots; the TLBs, the flash register file and the SSD page
// buffer are built on it.
//
// Linear probing with backward-shift deletion keeps probe runs short
// without tombstones; the table doubles whenever it would pass half
// full, so a table sized for its bound never grows.
package intmap

// Map is an open-addressed uint64 -> int32 index. Values must be
// non-negative.
type Map struct {
	keys []uint64
	vals []int32 // value+1; 0 marks an empty slot
	mask uint64
	n    int
}

// New returns a map that holds capacity entries at no more than half
// load without growing.
func New(capacity int) *Map {
	m := &Map{}
	m.init(capacity)
	return m
}

func (m *Map) init(capacity int) {
	size := 1
	for size < 2*capacity {
		size <<= 1
	}
	m.keys = make([]uint64, size)
	m.vals = make([]int32, size)
	m.mask = uint64(size - 1)
	m.n = 0
}

func (m *Map) hash(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> 32 & m.mask
}

// Len reports the number of entries.
func (m *Map) Len() int { return m.n }

// Get returns the value stored for key.
func (m *Map) Get(key uint64) (int32, bool) {
	for i := m.hash(key); m.vals[i] != 0; i = (i + 1) & m.mask {
		if m.keys[i] == key {
			return m.vals[i] - 1, true
		}
	}
	return 0, false
}

// Put stores v for key, replacing any previous value.
func (m *Map) Put(key uint64, v int32) {
	i := m.hash(key)
	for ; m.vals[i] != 0; i = (i + 1) & m.mask {
		if m.keys[i] == key {
			m.vals[i] = v + 1
			return
		}
	}
	if 2*(m.n+1) > len(m.keys) {
		m.grow()
		m.Put(key, v)
		return
	}
	m.keys[i] = key
	m.vals[i] = v + 1
	m.n++
}

func (m *Map) grow() {
	keys, vals := m.keys, m.vals
	m.init(len(keys))
	for i, v := range vals {
		if v != 0 {
			m.Put(keys[i], v-1)
		}
	}
}

// Delete removes key if present, backward-shifting the rest of its
// probe run so lookups never need tombstones.
func (m *Map) Delete(key uint64) {
	i := m.hash(key)
	for {
		if m.vals[i] == 0 {
			return
		}
		if m.keys[i] == key {
			break
		}
		i = (i + 1) & m.mask
	}
	m.n--
	for {
		m.vals[i] = 0
		j := i
		for {
			j = (j + 1) & m.mask
			if m.vals[j] == 0 {
				return
			}
			h := m.hash(m.keys[j])
			// Move j's entry into the hole at i only if its home
			// position lies cyclically outside (i, j] — otherwise the
			// entry is still reachable from its home and must stay.
			if i <= j && h <= i || h > j && (i <= j || h <= i) {
				m.keys[i], m.vals[i] = m.keys[j], m.vals[j]
				i = j
				break
			}
		}
	}
}

// StateBytes reports the allocated footprint of the index.
func (m *Map) StateBytes() uint64 { return uint64(len(m.keys)) * 12 }
