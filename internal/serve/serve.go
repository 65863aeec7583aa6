// Package serve is the concurrent serving engine: it turns the
// externally-serialized batch API of the PIM-zd-tree into a
// multi-client service without giving up the batch fast path.
//
// The paper's throughput claim rests on batching — push-pull waves keep
// every PIM module busy only when queries arrive in bulk. A naive server
// (one mutex, one request at a time) therefore pays the full fixed cost
// of a wave per request and the host pipeline, not the simulated
// hardware, becomes the bottleneck. This package recovers the batch
// shape from concurrent traffic:
//
//	clients ──► FIFO intake ──► executor ──► responses
//	            (admission      (drain into an epoch plan,
//	             control)        epoch fence + batch ops)
//
// Concurrent client requests land in one mutex-guarded FIFO queue
// (admission-controlled: a full queue sheds instead of building unbounded
// backlog). One executor goroutine, whenever it is free, drains the
// queue and coalesces whatever has accumulated into an epoch plan — one
// native batch per operation type (Search/Insert/Delete/KNN/BoxCount are
// already the fast path) — and runs it against the tree: all read
// batches of an epoch execute against the root snapshot published by the
// previous update epoch (verified by an epoch fence around the read
// phase), then the epoch's updates apply and publish the next snapshot.
// While the executor runs epoch E clients keep enqueueing, and everything
// that arrives meanwhile forms epoch E+1: a request waits for at most the
// epoch in flight.
//
// Epoch semantics (MVCC-lite): requests admitted into epoch E observe
//
//	reads   — the root published by epoch E-1's updates (stable for the
//	          whole read phase; the fence proves it),
//	inserts — applied before deletes of the same epoch,
//	deletes — applied last; both become visible to epoch E+1 reads.
//
// Coalescing changes only *when* batches form, never what a batch
// computes: a deterministic request schedule yields byte-identical
// modeled metrics at any GOMAXPROCS (tested), and the modeled goldens of
// the underlying tree are untouched.
package serve

import (
	"pimzdtree/internal/core"
	"pimzdtree/internal/geom"
)

// Backend is the batch interface the engine drives. The server serves a
// *shard.Index (one tree or S shards); NewTreeBackend adapts a bare
// *core.Tree.
//
// The engine guarantees external serialization: at most one Backend
// method runs at a time. Epoch must be readable from any goroutine and
// advance exactly once per applied update batch (InsertBatch/DeleteBatch)
// — it is the fence the engine checks around read phases.
type Backend interface {
	Dims() uint8
	SearchBatch(pts []geom.Point) []bool
	InsertBatch(pts []geom.Point)
	DeleteBatch(pts []geom.Point)
	KNNBatch(pts []geom.Point, k int) [][]core.Neighbor
	BoxCountBatch(boxes []geom.Box) []int64
	Epoch() uint64
}

// TreeBackend adapts *core.Tree to the Backend interface.
type TreeBackend struct {
	T *core.Tree
}

// NewTreeBackend wraps a PIM-zd-tree.
func NewTreeBackend(t *core.Tree) *TreeBackend { return &TreeBackend{T: t} }

// Dims returns the indexed dimensionality.
func (b *TreeBackend) Dims() uint8 { return b.T.Dims() }

// SearchBatch answers exact point membership for the batch.
func (b *TreeBackend) SearchBatch(pts []geom.Point) []bool { return b.T.ContainsBatch(pts) }

// InsertBatch applies one insert batch.
func (b *TreeBackend) InsertBatch(pts []geom.Point) { b.T.Insert(pts) }

// DeleteBatch applies one delete batch.
func (b *TreeBackend) DeleteBatch(pts []geom.Point) { b.T.Delete(pts) }

// KNNBatch answers exact kNN (l2) for the batch (k clamps to the tree
// size; an empty tree yields empty neighbor lists — see core.Tree.KNN).
func (b *TreeBackend) KNNBatch(pts []geom.Point, k int) [][]core.Neighbor {
	return b.T.KNN(pts, k)
}

// BoxCountBatch counts stored points per box.
func (b *TreeBackend) BoxCountBatch(boxes []geom.Box) []int64 { return b.T.BoxCount(boxes) }

// Epoch returns the tree's published update epoch.
func (b *TreeBackend) Epoch() uint64 { return b.T.Epoch() }
