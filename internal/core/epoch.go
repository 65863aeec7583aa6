package core

// Epoch hook for the concurrent serving engine (internal/serve).
//
// Batch operations on a Tree are externally serialized: the tree mutates
// nodes in place, so there is no structural multi-versioning. What the
// serving layer needs is weaker and cheap: a way to observe, from any
// goroutine, which update epoch the tree is in — so an epoch-pipelined
// scheduler can fence read batches against a stable root ("reads admitted
// in epoch E see the root left by update epoch E-1") and *prove* no
// update interleaved with a read phase. The tree therefore keeps one
// atomic epoch counter: construction leaves it at 0, and each applied
// update batch (Insert, Delete, Rebuild) bumps it after its relayout
// completes.

// Epoch returns the tree's current update epoch: the number of update
// batches (Insert/Delete/Rebuild) applied since construction. Safe to call
// from any goroutine; the value only changes at update-batch boundaries.
func (t *Tree) Epoch() uint64 { return t.epoch.Load() }
