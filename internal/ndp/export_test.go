package ndp

// WalkRecords reports the walker's record slab: its size and how many of
// its records are free.
func WalkRecords(w *Walker) (slab, free int) { return len(w.walks.recs), len(w.walks.free) }
