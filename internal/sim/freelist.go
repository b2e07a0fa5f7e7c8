package sim

// FreeList recycles the records a component keeps for work in flight
// (memory requests, mesh messages, page translations), so the steady
// state of a simulation allocates nothing: a record goes back once its
// work completes and is handed out again, last in first out. The zero
// value is ready to use. Records carry no identity the model observes,
// so reuse order cannot change a result.
//
// New records are cut from chunks, not allocated one by one. The first
// chunk holds minChunk records and each later one as many as all before
// it, up to maxChunk: capacity doubles, so a list whose high-water mark
// is a power of two wastes no record, a shallow list costs one small
// allocation and a deep one an allocation per maxChunk records. Chunks
// are never moved, so a record's address stays valid while pending
// events hold it.
type FreeList[T any] struct {
	free  []*T
	fresh []T // the unused tail of the newest chunk
	made  int // records cut from chunks so far
}

const (
	minChunk = 8
	maxChunk = 64
)

// Get returns a zeroed record.
func (l *FreeList[T]) Get() *T {
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free = l.free[:n-1]
		return x
	}
	if len(l.fresh) == 0 {
		n := min(max(l.made, minChunk), maxChunk)
		l.fresh = make([]T, n)
		l.made += n
	}
	x := &l.fresh[0]
	l.fresh = l.fresh[1:]
	return x
}

// Put zeroes x and keeps it for reuse. The caller must hold no other
// reference to x.
func (l *FreeList[T]) Put(x *T) {
	var zero T
	*x = zero
	l.free = append(l.free, x)
}
