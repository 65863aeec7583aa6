package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/workload"
)

// History independence of the build path, pinned directly: the tree over a
// point set is the same tree whatever order the points arrive in, whichever
// entry point builds it (New, Insert into an empty tree, Rebuild) and
// however many workers sort and construct it.

// sameSubtree compares structure and payload: keys, prefix lengths, cells,
// sizes and leaf contents.
func sameSubtree(a, b *Node, path string) error {
	if a == nil || b == nil {
		if a != b {
			return fmt.Errorf("%s: one side is empty", path)
		}
		return nil
	}
	if a.Key != b.Key || a.PrefixLen != b.PrefixLen || a.Size != b.Size || a.lo != b.lo || a.dims != b.dims || a.IsLeaf() != b.IsLeaf() {
		return fmt.Errorf("%s: node differs: key %x/%x plen %d/%d size %d/%d leaf %v/%v",
			path, a.Key, b.Key, a.PrefixLen, b.PrefixLen, a.Size, b.Size, a.IsLeaf(), b.IsLeaf())
	}
	if a.IsLeaf() {
		if len(a.lanes) != len(b.lanes) {
			return fmt.Errorf("%s: leaf lanes hold %d/%d coordinates", path, len(a.lanes), len(b.lanes))
		}
		for i := range int(a.Size) {
			if a.point(i) != b.point(i) {
				return fmt.Errorf("%s: leaf entry %d differs", path, i)
			}
		}
		return nil
	}
	if err := sameSubtree(a.Left, b.Left, path+"L"); err != nil {
		return err
	}
	return sameSubtree(a.Right, b.Right, path+"R")
}

func TestBuildEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dupHeavy := make([]geom.Point, 9000)
	for i, p := range randPoints(rng, 60, 3, 1<<20) { // 60 distinct points, 150 copies each
		for j := 0; j < 150; j++ {
			dupHeavy[i*150+j] = p
		}
	}
	allEqual := make([]geom.Point, 3000)
	for i := range allEqual {
		allEqual[i] = geom.P3(7, 8, 9)
	}
	inputs := []struct {
		name string
		pts  []geom.Point
	}{
		{"uniform", workload.Uniform(22, 30_000, 3)},
		{"osm-like", workload.OSMLike(23, 30_000, 3)},
		{"duplicate-heavy", dupHeavy},
		{"all-equal", allEqual},
		{"one-leaf", randPoints(rng, 16, 3, 1<<20)}, // n == LeafCap
		{"single", randPoints(rng, 1, 3, 1<<20)},
		{"empty", nil},
	}
	for _, procs := range []int{1, 4} {
		for _, in := range inputs {
			t.Run(fmt.Sprintf("%s/procs=%d", in.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				shuffled := append([]geom.Point(nil), in.pts...)
				rand.New(rand.NewSource(24)).Shuffle(len(shuffled), func(i, j int) {
					shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
				})
				cfg := testConfig(SkewResistant)

				built := New(cfg, in.pts)
				if err := built.CheckInvariants(); err != nil {
					t.Fatalf("New: %v", err)
				}
				if built.Size() != len(in.pts) {
					t.Fatalf("New holds %d points, want %d", built.Size(), len(in.pts))
				}

				other := New(cfg, shuffled)
				if err := sameSubtree(built.root, other.root, "root"); err != nil {
					t.Errorf("New(shuffled): %v", err)
				}
				if a, b := built.System().Metrics(), other.System().Metrics(); a != b {
					t.Errorf("New(shuffled) modeled metrics differ:\n %+v\n %+v", a, b)
				}
				if err := other.CheckInvariants(); err != nil {
					t.Errorf("New(shuffled): %v", err)
				}

				inserted := New(cfg, nil)
				inserted.Insert(shuffled)
				if err := sameSubtree(built.root, inserted.root, "root"); err != nil {
					t.Errorf("Insert into empty: %v", err)
				}
				if err := inserted.CheckInvariants(); err != nil {
					t.Errorf("Insert into empty: %v", err)
				}

				other.Rebuild()
				if err := sameSubtree(built.root, other.root, "root"); err != nil {
					t.Errorf("Rebuild: %v", err)
				}
				if err := other.CheckInvariants(); err != nil {
					t.Errorf("Rebuild: %v", err)
				}
			})
		}
	}
}
