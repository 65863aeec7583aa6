package obs

import (
	"cmp"
	"slices"
)

// TopK is the bounded slow capture shared by the flight recorder's slow-op
// set and serve's slow-request set: it retains the K values with the
// largest keys. Callers decide each value's key and tie ID; TopK owns the
// eviction rule and the snapshot order. It is not safe for concurrent
// use: both callers hold their own lock.
type TopK[T any] struct {
	k    int
	ents []topKEntry[T]
}

type topKEntry[T any] struct {
	key float64
	id  uint64
	val T
}

// NewTopK returns an empty capture retaining at most k values.
func NewTopK[T any](k int) TopK[T] { return TopK[T]{k: k} }

// Slot returns the slot a newcomer with this key and tie ID should fill in
// place, or nil when the set is full and key does not exceed the smallest
// retained key: only a strictly greater key evicts, so on a tie the
// incumbent stays and a stream of equal keys settles. An evicted slot
// still holds the evicted value, so the caller can reuse its buffers; a
// fresh slot holds the zero T.
func (t *TopK[T]) Slot(key float64, id uint64) *T {
	if len(t.ents) < t.k {
		t.ents = append(t.ents, topKEntry[T]{key: key, id: id})
		return &t.ents[len(t.ents)-1].val
	}
	minI := 0
	for i := 1; i < len(t.ents); i++ {
		if t.ents[i].key < t.ents[minI].key {
			minI = i
		}
	}
	e := &t.ents[minI]
	if key <= e.key {
		return nil
	}
	e.key, e.id = key, id
	return &e.val
}

// Sorted returns clones of the retained values, largest key first, ties
// by ascending tie ID — a total order, so snapshots are reproducible. The
// result is never nil.
func (t *TopK[T]) Sorted(clone func(T) T) []T {
	ents := slices.Clone(t.ents)
	slices.SortFunc(ents, func(a, b topKEntry[T]) int {
		if c := cmp.Compare(b.key, a.key); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	out := make([]T, len(ents))
	for i := range ents {
		out[i] = clone(ents[i].val)
	}
	return out
}
