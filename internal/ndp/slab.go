package ndp

// slab keeps in-flight records by int32 index, the argument a typed engine
// event carries. Released records are reused before the slab grows, so it
// grows only to the peak number in flight.
type slab[T any] struct {
	recs []T
	free []int32
}

// get returns the index of a zero record.
func (s *slab[T]) get() int32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		return i
	}
	var zero T
	s.recs = append(s.recs, zero)
	return int32(len(s.recs) - 1)
}

// put releases record i, zeroing it so it pins nothing while free.
func (s *slab[T]) put(i int32) {
	var zero T
	s.recs[i] = zero
	s.free = append(s.free, i)
}
