package core

import "math"

// Lazy counters (§3.4, Table 1). Every node's master keeps the exact
// subtree size (Size): masters lie on the search path of each update, so
// keeping them exact costs no extra communication. What is expensive is
// synchronizing the replicated snapshot (SC) held by the node's copies —
// the P-wide L0 replica and the L1 cache copies. Changes therefore
// accumulate as the drift Delta = Size − SC and the snapshot is
// re-broadcast only when Delta leaves the layer's window:
//
//	L0:  -ThetaL0/2          < Delta < ThetaL0
//	L1:  -m/2 < Delta < m    where m = min{ThetaL1, log_B(ThetaL0/ThetaL1)}
//	L2:  always in sync (exclusive nodes have no replicas, so the "sync"
//	     is the free local write)
//
// combined with the global guard -T/2 < Delta < T required by §3.4, which
// yields Lemma 3.1: T/2 <= SC <= 2T for every snapshot.

// deltaWindow returns the (min, max) lazy-counter window for a node.
func (t *Tree) deltaWindow(n *Node) (lo, hi int64) {
	var m int64
	switch n.Layer {
	case L0:
		m = t.thetaL0
	case L1:
		l := int64(1)
		if t.thetaL0 > t.thetaL1 && t.chunkB > 1 {
			l = int64(math.Ceil(math.Log(float64(t.thetaL0)/float64(t.thetaL1)) / math.Log(float64(t.chunkB))))
		}
		m = t.thetaL1
		if l < m {
			m = l
		}
		if m < 1 {
			m = 1
		}
	case L2:
		return 0, 0
	}
	lo, hi = -(m / 2), m
	// Global guard: with T = SC + Delta, Lemma 3.1's T/2 <= SC <= 2T is
	// equivalent to -T <= Delta <= T/2; syncing at half those bounds
	// keeps the invariant with margin.
	if g := n.Size / 2; hi > g {
		hi = g
	}
	if g := -(n.Size / 2); lo < g {
		lo = g
	}
	if hi < 0 {
		hi = 0
	}
	if lo > 0 {
		lo = 0
	}
	return lo, hi
}

// applyDelta records a subtree-size change of delta at node n, updating the
// exact master count immediately and the lazy snapshot when the window is
// exceeded (or on every change when lazy counters are ablated). Snapshot
// propagation traffic and the sync count accumulate into the caller's
// arena (st.syncBytes dense per module, st.syncs), never into shared Tree
// state — the fork-join merge walk calls this concurrently from sibling
// branches, each on its own arena.
func (t *Tree) applyDelta(n *Node, delta int64, st *updateStats) {
	n.Size += delta
	if t.cfg.DisableLazyCounters {
		// Strict consistency (the Table 3 ablation): every operation's
		// increment must reach the master and every replica individually
		// — per-op versioned messages, which batching cannot collapse
		// the way lazy window-triggered snapshots can.
		ops := delta
		if ops < 0 {
			ops = -ops
		}
		t.chargeCounterMessages(n, ops, st)
		n.SC = n.Size
		st.syncs += ops
		return
	}
	lo, hi := t.deltaWindow(n)
	if drift := n.Size - n.SC; drift >= hi || drift <= lo || drift == 0 {
		t.syncCounter(n, st)
	}
}

// chargeCounterMessages accumulates `count` counter messages to n's master
// module and each replica holder.
func (t *Tree) chargeCounterMessages(n *Node, count int64, st *updateStats) {
	if m := t.moduleOf(n); m >= 0 {
		st.syncBytes[m] += counterMsgBytes * count
	}
	switch n.Layer {
	case L0:
		if t.l0OnModules {
			for m := 0; m < t.P(); m++ {
				st.syncBytes[m] += counterMsgBytes * count
			}
		}
	case L1:
		if n.Chunk != nil {
			st.holderBuf = t.appendCacheHolders(n.Chunk, st.holderBuf[:0])
			for _, holder := range st.holderBuf {
				st.syncBytes[holder] += counterMsgBytes * count
			}
		}
	}
}

// syncCounter publishes n's exact size to its master module and all
// replicas. The master message matters: with L1 caching, searches and
// updates traverse cached copies on the entry module, so keeping even the
// master's counter current requires a message to its own module — the
// cost strict consistency pays on every update and lazy counters pay only
// on window overflow (the Table 3 "Lazy Counter" ablation).
func (t *Tree) syncCounter(n *Node, st *updateStats) {
	if n.SC == n.Size {
		return
	}
	n.SC = n.Size
	st.syncs++
	if m := t.moduleOf(n); m >= 0 {
		st.syncBytes[m] += counterMsgBytes
	}
	switch n.Layer {
	case L0:
		if t.l0OnModules {
			for m := 0; m < t.P(); m++ {
				st.syncBytes[m] += counterMsgBytes
			}
		}
	case L1:
		if n.Chunk != nil {
			st.holderBuf = t.appendCacheHolders(n.Chunk, st.holderBuf[:0])
			for _, holder := range st.holderBuf {
				st.syncBytes[holder] += counterMsgBytes
			}
		}
	}
}

// CheckCounterInvariant verifies Lemma 3.1 (T/2 <= SC <= 2T) on every
// node, returning the first violating node or nil.
func (t *Tree) CheckCounterInvariant() *Node {
	var bad *Node
	var rec func(n *Node)
	rec = func(n *Node) {
		if n == nil || bad != nil {
			return
		}
		if n.SC < (n.Size+1)/2 || n.SC > 2*n.Size {
			bad = n
			return
		}
		if n.IsLeaf() {
			return
		}
		rec(n.Left)
		rec(n.Right)
	}
	rec(t.root)
	return bad
}
