package sim

import "unsafe"

// slabBytes bounds a Slab chunk. Up to 512 B a chunk is one small-object
// size class with no malloc header; past it Go adds the header and rounds
// to a coarser class, and the unused tail of the last chunk grows with it.
const slabBytes = 512

// Slab hands out zeroed records of one type from small chunks, so a
// per-job record costs a share of one allocation instead of one of its
// own. A chunk stays live while any record taken from it is. The zero Slab
// is ready to use; it is not safe for concurrent use.
type Slab[T any] struct {
	free []T
	// reserved is the chunk Reserve made, kept for Clear and the next
	// Reserve.
	reserved []T
}

// Take returns the next zeroed record, starting a new chunk when the
// current one is spent.
func (s *Slab[T]) Take() *T {
	if len(s.free) == 0 {
		var zero T
		s.free = make([]T, max(1, slabBytes/max(1, int(unsafe.Sizeof(zero)))))
	}
	p := &s.free[0]
	s.free = s.free[1:]
	return p
}

// Reserve makes the next n takes come from one chunk of at least n
// records: a batch run that knows its job count allocates their records
// once, and not at all when a cleared slab's chunk is large enough. Call it
// on a new or cleared slab, or it hands out records already taken.
func (s *Slab[T]) Reserve(n int) {
	if cap(s.reserved) < n {
		s.reserved = make([]T, n)
	}
	s.free = s.reserved[:n]
}

// Clear zeroes the reserved chunk for the next Reserve and forgets every
// other chunk. No record taken before may be used after.
func (s *Slab[T]) Clear() {
	clear(s.reserved[:cap(s.reserved)])
	*s = Slab[T]{reserved: s.reserved}
}
