package sim

// FreeList recycles the records a component keeps for work in flight
// (memory requests, mesh messages, page translations), so the steady
// state of a simulation allocates nothing: a record goes back once its
// work completes and is handed out again, last in first out. The zero
// value is ready to use. Records carry no identity the model observes,
// so reuse order cannot change a result.
type FreeList[T any] struct {
	free []*T
}

// Get returns a zeroed record.
func (l *FreeList[T]) Get() *T {
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free = l.free[:n-1]
		return x
	}
	return new(T)
}

// Put zeroes x and keeps it for reuse. The caller must hold no other
// reference to x.
func (l *FreeList[T]) Put(x *T) {
	var zero T
	*x = zero
	l.free = append(l.free, x)
}
