package sim

// FreeList recycles the records of one component: Get hands back a record
// Put returned earlier, or a new zero one when there is none. The records
// come back as Put left them, so a caller resets what it reuses. One
// component on one engine owns each list (never shared across shards), so
// it needs no locking and, once warm, a hot path allocates nothing.
type FreeList[T any] struct{ recs []*T }

// Get returns a recycled record, or a new one.
func (f *FreeList[T]) Get() *T {
	n := len(f.recs)
	if n == 0 {
		return new(T)
	}
	r := f.recs[n-1]
	f.recs[n-1] = nil
	f.recs = f.recs[:n-1]
	return r
}

// Put returns r for a later Get. The caller must hold no other reference
// to r that it still uses.
func (f *FreeList[T]) Put(r *T) { f.recs = append(f.recs, r) }
