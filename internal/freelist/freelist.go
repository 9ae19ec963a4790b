// Package freelist keeps idle values for reuse. Unlike package sync's
// Pool, which each garbage collection empties, a List holds what it
// keeps until Get takes it, bounded by count and by bytes per value, so
// allocation counts and the live heap do not depend on where the last
// collection fell.
package freelist

import "sync"

// List is a mutex-guarded LIFO stack of at most max values of at most
// keep bytes each.
type List[T any] struct {
	mu   sync.Mutex
	keep int
	vals []T // cap(vals) is max
}

// New returns an empty list of at most max values of at most keep bytes
// each. Its stack is allocated here, so Put never allocates.
func New[T any](max, keep int) *List[T] {
	return &List[T]{keep: keep, vals: make([]T, 0, max)}
}

// Get takes the value put last, or reports false if the list is empty.
func (l *List[T]) Get() (v T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.vals); n > 0 {
		v, l.vals[n-1] = l.vals[n-1], v
		l.vals, ok = l.vals[:n-1], true
	}
	return v, ok
}

// Put keeps v, whose buffers hold size bytes, unless size exceeds keep
// or the list is full; it reports whether v was kept. Nothing may use a
// kept value until Get hands it out again.
func (l *List[T]) Put(v T, size int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if size > l.keep || len(l.vals) == cap(l.vals) {
		return false
	}
	l.vals = append(l.vals, v)
	return true
}
