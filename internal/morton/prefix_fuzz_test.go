package morton

import (
	"math/rand"
	"testing"
)

// Satellite of the sharding PR: the shard router's correctness rests on
// two prefix facts — every key sharing a prefix decodes inside the
// prefix's box (so a shard's prefix box bounds everything it stores),
// and the box of [lo, hi]'s common prefix covers every key in between
// (so contiguous Morton ranges have a single bounding box). Fuzz both.

// keyMask returns the valid-key mask for a dimensionality.
func keyMask(dims int) uint64 {
	kb := KeyBits(dims)
	if kb >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<kb - 1
}

// FuzzPrefixBoxContainment: for any two keys a, b and their common
// prefix, every key that keeps the prefix and takes arbitrary suffix
// bits decodes to a point inside PrefixBox(a, CommonPrefixLen(a,b), d).
func FuzzPrefixBoxContainment(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(1), uint8(3))
	f.Add(uint64(0x123456789abcdef0), uint64(0x123456789abcffff), uint64(42), uint8(2))
	f.Add(^uint64(0), uint64(0), uint64(7), uint8(4))
	f.Fuzz(func(t *testing.T, a, b, suffixes uint64, d uint8) {
		dims := 2 + int(d)%3
		mask := keyMask(dims)
		a &= mask
		b &= mask
		pl := CommonPrefixLen(a, b, dims)
		box := PrefixBox(a, pl, uint8(dims))
		suffMask := mask >> pl // low KeyBits-pl bits vary freely
		rng := rand.New(rand.NewSource(int64(suffixes)))
		for trial := 0; trial < 16; trial++ {
			key := (a &^ suffMask) | (rng.Uint64() & suffMask)
			p := DecodePoint(key, uint8(dims))
			if !box.Contains(p) {
				t.Fatalf("dims=%d prefixLen=%d: key %#x (point %v) outside prefix box %v (a=%#x b=%#x)",
					dims, pl, key, p, box, a, b)
			}
		}
		// Both endpoints themselves must be inside.
		if !box.Contains(DecodePoint(a, uint8(dims))) || !box.Contains(DecodePoint(b, uint8(dims))) {
			t.Fatalf("dims=%d: endpoint escaped its own prefix box", dims)
		}
	})
}

// FuzzPrefixRangeCover: for any inclusive key range [lo, hi], the box of
// the endpoints' common prefix contains every key in the range — the
// exact bound a Morton-range shard relies on.
func FuzzPrefixRangeCover(f *testing.F) {
	f.Add(uint64(0), uint64(1<<40), uint64(3), uint8(3))
	f.Add(uint64(1<<61), ^uint64(0), uint64(9), uint8(2))
	f.Fuzz(func(t *testing.T, lo, hi, seed uint64, d uint8) {
		dims := 2 + int(d)%3
		mask := keyMask(dims)
		lo &= mask
		hi &= mask
		if lo > hi {
			lo, hi = hi, lo
		}
		box := PrefixBox(lo, CommonPrefixLen(lo, hi, dims), uint8(dims))
		rng := rand.New(rand.NewSource(int64(seed)))
		for trial := 0; trial < 16; trial++ {
			key := lo
			if span := hi - lo; span > 0 {
				key = lo + rng.Uint64()%span // may be < hi; hi checked below
			}
			if p := DecodePoint(key, uint8(dims)); !box.Contains(p) {
				t.Fatalf("dims=%d: in-range key %#x outside range box %v ([%#x,%#x])",
					dims, key, box, lo, hi)
			}
		}
		if p := DecodePoint(hi, uint8(dims)); !box.Contains(p) {
			t.Fatalf("dims=%d: hi endpoint %#x outside range box", dims, hi)
		}
	})
}

// FuzzRangeBoxes: the aligned-block decomposition of [lo, hi] is exact —
// a point lies inside one of the blocks if and only if its key is in the
// range. This is the tiling the shard router prunes kNN fan-out and box
// covers with, so both directions matter: containment keeps cross-shard
// answers complete, tightness keeps far shards out of the fan-out.
func FuzzRangeBoxes(f *testing.F) {
	f.Add(uint64(0), ^uint64(0), uint64(1), uint8(3))
	f.Add(uint64(5), uint64(5), uint64(2), uint8(2))
	f.Add(uint64(1)<<40, uint64(1)<<41, uint64(3), uint8(4))
	f.Fuzz(func(t *testing.T, lo, hi, seed uint64, d uint8) {
		dims := 2 + int(d)%3
		mask := keyMask(dims)
		lo &= mask
		hi &= mask
		if lo > hi {
			lo, hi = hi, lo
		}
		boxes := RangeBoxes(lo, hi, uint8(dims))
		if len(boxes) > 2*int(KeyBits(dims)) {
			t.Fatalf("dims=%d: %d blocks for [%#x,%#x], want <= %d",
				dims, len(boxes), lo, hi, 2*KeyBits(dims))
		}
		inBlocks := func(key uint64) bool {
			p := DecodePoint(key, uint8(dims))
			for _, b := range boxes {
				if b.Contains(p) {
					return true
				}
			}
			return false
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		for trial := 0; trial < 24; trial++ {
			// In-range keys must land in a block; out-of-range must not.
			key := lo
			switch span := hi - lo; {
			case span == ^uint64(0): // the whole 64-bit key space
				key = rng.Uint64()
			case span > 0:
				key = lo + rng.Uint64()%(span+1)
			}
			if !inBlocks(key) {
				t.Fatalf("dims=%d: in-range key %#x escapes blocks of [%#x,%#x]", dims, key, lo, hi)
			}
			out := rng.Uint64() & mask
			if out >= lo && out <= hi {
				continue
			}
			if inBlocks(out) {
				t.Fatalf("dims=%d: out-of-range key %#x inside blocks of [%#x,%#x]", dims, out, lo, hi)
			}
		}
		for _, key := range []uint64{lo, hi} {
			if !inBlocks(key) {
				t.Fatalf("dims=%d: endpoint %#x escapes blocks of [%#x,%#x]", dims, key, lo, hi)
			}
		}
		if lo > 0 && inBlocks(lo-1) {
			t.Fatalf("dims=%d: key below range inside blocks of [%#x,%#x]", dims, lo, hi)
		}
		if hi < mask && inBlocks(hi+1) {
			t.Fatalf("dims=%d: key above range inside blocks of [%#x,%#x]", dims, lo, hi)
		}
	})
}

// TestPrefixBoxTightness: the prefix box is exactly the set of points
// whose keys share the prefix — a point just outside any face of the box
// must not share it (checked on the aligned subtree boxes PrefixBox
// produces for whole-level prefixes).
func TestPrefixBoxTightness(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, dims := range []int{2, 3, 4} {
		for trial := 0; trial < 200; trial++ {
			key := rng.Uint64() & keyMask(dims)
			pl := uint(rng.Intn(int(KeyBits(dims)) + 1))
			box := PrefixBox(key, pl, uint8(dims))
			// Outside each low/high face, keys must diverge from the prefix.
			for d := 0; d < dims; d++ {
				probe := DecodePoint(key, uint8(dims))
				if box.Lo.Coords[d] > 0 {
					probe.Coords[d] = box.Lo.Coords[d] - 1
					if CommonPrefixLen(EncodePoint(probe), key, dims) >= pl && pl > 0 {
						t.Fatalf("dims=%d pl=%d: point below face %d still shares prefix", dims, pl, d)
					}
				}
				if box.Hi.Coords[d] < MaxCoord(dims) {
					probe = DecodePoint(key, uint8(dims))
					probe.Coords[d] = box.Hi.Coords[d] + 1
					if CommonPrefixLen(EncodePoint(probe), key, dims) >= pl && pl > 0 {
						t.Fatalf("dims=%d pl=%d: point above face %d still shares prefix", dims, pl, d)
					}
				}
			}
		}
	}
}
