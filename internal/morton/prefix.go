package morton

import (
	"math/bits"

	"pimzdtree/internal/geom"
)

// HighestDiffBit returns the index (0-based from the least significant end)
// of the most significant bit in which a and b differ. It panics if a == b.
// In a zd-tree, two keys sharing a node diverge exactly at the node's split
// bit, so this determines where a compressed path must be cut.
func HighestDiffBit(a, b uint64) uint {
	if a == b {
		panic("morton: HighestDiffBit of equal keys")
	}
	return uint(63 - bits.LeadingZeros64(a^b))
}

// CommonPrefixLen returns the number of leading key bits (counting from the
// top significant bit for the given dimensionality) shared by a and b.
func CommonPrefixLen(a, b uint64, dims int) uint {
	total := KeyBits(dims)
	if a == b {
		return total
	}
	diff := HighestDiffBit(a, b)
	if diff >= total {
		// Differ above the significant range; callers should have masked.
		return 0
	}
	return total - 1 - diff
}

// PrefixBox returns the axis-aligned bounding box of all points whose keys
// share the top prefixLen bits of key, for the given dimensionality. A
// z-order prefix always denotes a box: the fixed bits pin the upper bits of
// each coordinate and the free bits range over everything below.
func PrefixBox(key uint64, prefixLen uint, dims uint8) geom.Box {
	total := KeyBits(int(dims))
	if prefixLen > total {
		prefixLen = total
	}
	// Zero out the free (low) bits for the lo corner, set them for hi.
	free := total - prefixLen
	var loKey, hiKey uint64
	if free == 64 {
		loKey, hiKey = 0, ^uint64(0)
	} else {
		mask := (uint64(1) << free) - 1
		loKey = key &^ mask
		hiKey = key | mask
	}
	lo := DecodePoint(loKey, dims)
	hi := DecodePoint(hiKey, dims)
	return geom.Box{Lo: lo, Hi: hi}
}

// PrefixMask returns, per coordinate, the bits a z-order prefix of
// prefixLen key bits leaves free (zero beyond dims). Decoding is a bit
// permutation, so the cell PrefixBox(key, prefixLen, dims) is [lo, lo|mask]
// with lo its low corner: a caller that keeps lo derives the high corner
// with one OR per dimension from a table of these masks.
func PrefixMask(prefixLen uint, dims uint8) [geom.MaxDims]uint32 {
	total := KeyBits(int(dims))
	if prefixLen > total {
		prefixLen = total
	}
	return DecodePoint(blockMask(total-prefixLen), dims).Coords
}

// blockMask returns a mask of the low free bits (free >= 64 saturates).
func blockMask(free uint) uint64 {
	if free >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<free - 1
}

// RangeBoxes decomposes the inclusive key range [lo, hi] into maximal
// prefix-aligned blocks and returns their boxes, in key order. The boxes
// tile exactly the points whose keys fall in [lo, hi]: a point is inside
// one of them if and only if its key is in the range. A range needs at
// most 2*KeyBits blocks (the CIDR-style greedy split: the largest aligned
// block starting at lo that still ends at or before hi, repeated).
//
// This is the tight geometry of a Morton-contiguous shard. The single
// PrefixBox of CommonPrefixLen(lo, hi) can degrade to the whole space
// when the range straddles a high split bit, which would defeat distance
// pruning entirely; the block decomposition never loosens.
func RangeBoxes(lo, hi uint64, dims uint8) []geom.Box {
	total := KeyBits(int(dims))
	out := make([]geom.Box, 0, 8)
	for {
		// Largest aligned block at lo: limited by lo's alignment...
		free := total
		if lo != 0 {
			if tz := uint(bits.TrailingZeros64(lo)); tz < free {
				free = tz
			}
		}
		// ...then shrunk until it ends at or before hi. lo is aligned to
		// 2^free, so lo|mask is the block's last key (no overflow).
		for free > 0 && lo|blockMask(free) > hi {
			free--
		}
		out = append(out, PrefixBox(lo, total-free, dims))
		end := lo | blockMask(free)
		if end >= hi {
			return out
		}
		lo = end + 1
	}
}

// BitAt returns bit i (0 = least significant) of key as 0 or 1.
func BitAt(key uint64, i uint) uint64 {
	return key >> i & 1
}
