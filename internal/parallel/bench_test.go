package parallel

import (
	"math/rand"
	"testing"
)

// Benchmark inputs mirror the shapes the index actually sorts: 1e6 random
// 64-bit Morton keys for builds, and frontiers of (query, node) entries
// whose keys concentrate on ~P=2048 distinct chunk ids for semisort.
const benchN = 1 << 20

type benchEntry struct {
	key uint64
	qi  int32
}

func benchKeys(seed int64, n int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	return keys
}

func benchEntries(seed int64, n, distinct int) []benchEntry {
	rng := rand.New(rand.NewSource(seed))
	items := make([]benchEntry, n)
	for i := range items {
		items[i] = benchEntry{key: uint64(rng.Intn(distinct)), qi: int32(i)}
	}
	return items
}

func BenchmarkSortKeys(b *testing.B) {
	orig := benchKeys(11, benchN)
	keys := make([]uint64, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(keys, orig)
		SortKeys(keys)
	}
}

func BenchmarkSortBy(b *testing.B) {
	orig := benchEntries(12, benchN, 1<<30)
	items := make([]benchEntry, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(items, orig)
		SortBy(items, func(e benchEntry) uint64 { return e.key })
	}
}

func BenchmarkSemisort(b *testing.B) {
	orig := benchEntries(13, benchN, 2048)
	items := make([]benchEntry, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(items, orig)
		Semisort(items, func(e benchEntry) uint64 { return e.key })
	}
}

// The trees hold one Sorter per tree and reuse its scratch (key caches,
// histograms, group tables) across batches; the *Reuse variants measure
// that steady state, where sorting and semisorting allocate nothing.
func BenchmarkSortByReuse(b *testing.B) {
	orig := benchEntries(12, benchN, 1<<30)
	items := make([]benchEntry, benchN)
	var s Sorter[benchEntry]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(items, orig)
		s.SortBy(items, func(e benchEntry) uint64 { return e.key })
	}
}

func BenchmarkSemisortReuse(b *testing.B) {
	orig := benchEntries(13, benchN, 2048)
	items := make([]benchEntry, benchN)
	var s Sorter[benchEntry]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(items, orig)
		s.Semisort(items, func(e benchEntry) uint64 { return e.key })
	}
}

func BenchmarkExclusiveScan(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	in := make([]int, benchN)
	for i := range in {
		in[i] = rng.Intn(8)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExclusiveScan(in)
	}
}

// BenchmarkSortPairsReuse is the tree's batch sort: (key, uint32 index)
// pairs, 12 bytes moved per element per pass.
func BenchmarkSortPairsReuse(b *testing.B) {
	orig := benchKeys(15, benchN)
	keys := make([]uint64, benchN)
	idx := make([]uint32, benchN)
	var s Sorter[uint32]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(keys, orig)
		for j := range idx {
			idx[j] = uint32(j)
		}
		s.SortPairs(keys, idx)
	}
}
