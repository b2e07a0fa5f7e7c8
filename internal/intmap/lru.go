package intmap

import "unsafe"

// LRU is a set-associative index from uint64 keys to dense slots that
// keeps every set in exact least-recently-used order. A Map resolves a
// key to its slot, and intrusive doubly linked lists, one per set,
// order each set's slots from most to least recently used, so a hit's
// promotion and a full set's eviction are O(1) and no victim search
// scans the set. Each slot carries a payload of type V beside its key.
//
// Every set chains its own free slots. Either each set's slots are
// reserved up front (a TLB), or slots are cut from one pool as keys
// arrive and shared by all sets (the flash register file, and the SSD
// page buffer's one set), so an index whose sets stay mostly empty
// holds only what it stores.
//
// Which set a key belongs to is the caller's to define; every
// operation that links or unlinks a slot takes it.
type LRU[V any] struct {
	ways  int32
	slots []lruSlot[V]
	sets  []lruSet
	idx   *Map // key -> slot
}

type lruSlot[V any] struct {
	val        V // first, so a zero-size V adds no padding
	key        uint64
	prev, next int32 // the set's list; next also chains free slots
}

// lruSet is one set's MRU head, LRU tail, free-slot chain and live
// count; -1 ends a list or chain.
type lruSet struct{ head, tail, free, size int32 }

// NewLRU returns an index of sets sets holding at most ways keys each.
// With reserve, every set's slots and the index's full capacity are
// allocated now, set s owning slots s*ways to s*ways+ways-1; without
// it, slots and index grow as keys arrive.
func NewLRU[V any](sets, ways int, reserve bool) *LRU[V] {
	l := &LRU[V]{ways: int32(ways), sets: make([]lruSet, sets)}
	capacity := 0
	if reserve {
		capacity = sets * ways
		l.slots = make([]lruSlot[V], capacity)
	}
	l.idx = New(capacity)
	for s := range l.sets {
		set := &l.sets[s]
		set.head, set.tail, set.free = -1, -1, -1
		if reserve && ways > 0 {
			set.free = int32(s * ways)
			for slot := s * ways; slot < (s+1)*ways-1; slot++ {
				l.slots[slot].next = int32(slot + 1)
			}
			l.slots[(s+1)*ways-1].next = -1
		}
	}
	return l
}

// Len reports the number of keys held across all sets.
func (l *LRU[V]) Len() int { return l.idx.Len() }

// Get returns key's slot without changing its recency.
func (l *LRU[V]) Get(key uint64) (int32, bool) { return l.idx.Get(key) }

// Val returns slot's payload. The pointer is valid until the next
// Insert, which may move the slots.
func (l *LRU[V]) Val(slot int32) *V { return &l.slots[slot].val }

// Full reports whether set holds ways keys.
func (l *LRU[V]) Full(set int) bool { return l.sets[set].size >= l.ways }

// Touch makes slot, which holds a key of set, the set's most recently
// used.
func (l *LRU[V]) Touch(set int, slot int32) {
	s := &l.sets[set]
	if s.head != slot {
		l.unlink(s, slot)
		l.pushFront(s, slot)
	}
}

// Insert adds key, which must be absent, to set, which must not be
// full, as the set's most recently used entry.
func (l *LRU[V]) Insert(set int, key uint64, val V) {
	s := &l.sets[set]
	slot := s.free
	if slot >= 0 {
		s.free = l.slots[slot].next
	} else {
		slot = int32(len(l.slots))
		l.slots = append(l.slots, lruSlot[V]{})
	}
	l.slots[slot].val, l.slots[slot].key = val, key
	l.idx.Put(key, slot)
	l.pushFront(s, slot)
	s.size++
}

// Evict removes set's least recently used entry, which must exist, and
// returns its key and payload.
func (l *LRU[V]) Evict(set int) (uint64, V) {
	s := &l.sets[set]
	slot := s.tail
	e := l.slots[slot]
	l.remove(s, slot)
	return e.key, e.val
}

// Delete removes key, which belongs to set, if present.
func (l *LRU[V]) Delete(set int, key uint64) {
	if slot, ok := l.idx.Get(key); ok {
		l.remove(&l.sets[set], slot)
	}
}

func (l *LRU[V]) remove(s *lruSet, slot int32) {
	l.idx.Delete(l.slots[slot].key)
	l.unlink(s, slot)
	l.slots[slot].next = s.free
	s.free = slot
	s.size--
}

func (l *LRU[V]) unlink(s *lruSet, slot int32) {
	e := &l.slots[slot]
	if e.prev >= 0 {
		l.slots[e.prev].next = e.next
	} else {
		s.head = e.next
	}
	if e.next >= 0 {
		l.slots[e.next].prev = e.prev
	} else {
		s.tail = e.prev
	}
}

func (l *LRU[V]) pushFront(s *lruSet, slot int32) {
	e := &l.slots[slot]
	e.prev, e.next = -1, s.head
	if s.head >= 0 {
		l.slots[s.head].prev = slot
	} else {
		s.tail = slot
	}
	s.head = slot
}

// StateBytes reports the allocated footprint of the slots, the sets
// and the index.
func (l *LRU[V]) StateBytes() uint64 {
	slot := uint64(unsafe.Sizeof(lruSlot[V]{}))
	set := uint64(unsafe.Sizeof(lruSet{}))
	return uint64(cap(l.slots))*slot + uint64(len(l.sets))*set + l.idx.StateBytes()
}
