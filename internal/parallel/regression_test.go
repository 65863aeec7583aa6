package parallel

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// TestReduceManyWorkersRegression pins the fix for the out-of-range panic:
// Reduce sized its partials with a capped worker count but handed the
// blocked pass an independent GOMAXPROCS-derived count, so any host with
// GOMAXPROCS > len(in)/grain+1 indexed past the end. 2049 elements with 8
// procs is the smallest shape that crossed the old paths.
func TestReduceManyWorkersRegression(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	in := make([]int64, grain+1)
	var want int64
	for i := range in {
		in[i] = int64(i)
		want += int64(i)
	}
	if got := Sum(in); got != want {
		t.Fatalf("Sum = %d, want %d", got, want)
	}
}

type ssItem struct {
	key uint64
	id  int
}

// semisortReference is the old sort-based semisort: stable sort by key,
// then scan for boundaries. The hash-based path must reproduce its output
// byte for byte (groups ascending by key, stable within each group).
func semisortReference(items []ssItem) []Group {
	sort.SliceStable(items, func(i, j int) bool { return items[i].key < items[j].key })
	var groups []Group
	for i := 0; i < len(items); {
		j := i + 1
		for j < len(items) && items[j].key == items[i].key {
			j++
		}
		groups = append(groups, Group{Key: items[i].key, Lo: i, Hi: j})
		i = j
	}
	return groups
}

func TestSemisortMatchesSortReference(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	for _, tc := range []struct {
		n, distinct int
	}{
		{100, 7},         // sequential fallback
		{50_000, 512},    // hash path, chunk-id-like key density
		{50_000, 2048},   // hash path at P buckets
		{8192, 1},        // all equal
		{20_000, 20_000}, // all distinct: sort fallback
	} {
		rng := rand.New(rand.NewSource(int64(tc.n) + int64(tc.distinct)))
		items := make([]ssItem, tc.n)
		for i := range items {
			items[i] = ssItem{key: uint64(rng.Intn(tc.distinct)), id: i}
		}
		ref := append([]ssItem(nil), items...)
		wantGroups := semisortReference(ref)

		gotGroups := Semisort(items, func(e ssItem) uint64 { return e.key })

		if len(gotGroups) != len(wantGroups) {
			t.Fatalf("n=%d distinct=%d: %d groups, want %d", tc.n, tc.distinct, len(gotGroups), len(wantGroups))
		}
		for i := range wantGroups {
			if gotGroups[i] != wantGroups[i] {
				t.Fatalf("n=%d distinct=%d: group %d = %+v, want %+v", tc.n, tc.distinct, i, gotGroups[i], wantGroups[i])
			}
		}
		for i := range ref {
			if items[i] != ref[i] {
				t.Fatalf("n=%d distinct=%d: item %d = %+v, want %+v (layout must match sort-based semisort)",
					tc.n, tc.distinct, i, items[i], ref[i])
			}
		}
	}
}

func TestSorterReuseAcrossCalls(t *testing.T) {
	var s Sorter[ssItem]
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{10_000, 100, 60_000, 60_000, 5000} {
		items := make([]ssItem, n)
		for i := range items {
			items[i] = ssItem{key: uint64(rng.Intn(97)), id: i}
		}
		ref := append([]ssItem(nil), items...)
		want := semisortReference(ref)
		got := s.Semisort(items, func(e ssItem) uint64 { return e.key })
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d groups, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: group %d = %+v, want %+v", n, i, got[i], want[i])
			}
		}
		// And a sort on the same Sorter between semisorts.
		s.SortBy(items, func(e ssItem) uint64 { return uint64(e.id) })
		for i := range items {
			if items[i].id != i {
				t.Fatalf("n=%d: SortBy after Semisort misplaced id %d at %d", n, items[i].id, i)
			}
		}
	}
}

func TestSortByStableLargeParallel(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(3))
	n := 200_000
	items := make([]ssItem, n)
	for i := range items {
		items[i] = ssItem{key: uint64(rng.Intn(1000)), id: i}
	}
	SortBy(items, func(e ssItem) uint64 { return e.key })
	for i := 1; i < n; i++ {
		if items[i-1].key > items[i].key {
			t.Fatalf("unsorted at %d: %d > %d", i, items[i-1].key, items[i].key)
		}
		if items[i-1].key == items[i].key && items[i-1].id > items[i].id {
			t.Fatalf("unstable at %d: id %d before %d", i, items[i-1].id, items[i].id)
		}
	}
}

func TestSortKeysLargeParallel(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(4))
	keys := make([]uint64, 300_000)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	want := append([]uint64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	SortKeys(keys)
	for i := range keys {
		if keys[i] != want[i] {
			t.Fatalf("keys[%d] = %d, want %d", i, keys[i], want[i])
		}
	}
}

func TestExclusiveScanParallelAliased(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(5))
	n := 100_000
	in := make([]int, n)
	for i := range in {
		in[i] = rng.Intn(9)
	}
	wantOut := make([]int, n)
	run := 0
	for i, v := range in {
		wantOut[i] = run
		run += v
	}
	// In-place: out aliases in.
	got := append([]int(nil), in...)
	total := ExclusiveScanInto(got, got)
	if total != run {
		t.Fatalf("total = %d, want %d", total, run)
	}
	for i := range wantOut {
		if got[i] != wantOut[i] {
			t.Fatalf("offset[%d] = %d, want %d", i, got[i], wantOut[i])
		}
	}
}

// SortPairs must produce exactly what a stable SortBy of (key, index)
// records produces — sorted keys in place, the permutation in items — on
// both sides of the radix cutoff, with duplicate-heavy and all-equal keys,
// at one worker and several.
func TestSortPairsMatchesSortBy(t *testing.T) {
	type rec struct {
		key uint64
		idx uint32
	}
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 100, seqSortCutoff - 1, seqSortCutoff, 50_000} {
			for _, distinct := range []uint64{1, 7, 1 << 40} {
				rng := rand.New(rand.NewSource(int64(n) + int64(distinct)))
				keys := make([]uint64, n)
				idx := make([]uint32, n)
				want := make([]rec, n)
				for i := range keys {
					keys[i] = rng.Uint64() % distinct << 3
					idx[i] = uint32(i)
					want[i] = rec{keys[i], idx[i]}
				}
				SortBy(want, func(r rec) uint64 { return r.key })
				var s Sorter[uint32]
				s.SortPairs(keys, idx)
				for i := range want {
					if keys[i] != want[i].key || idx[i] != want[i].idx {
						t.Fatalf("procs=%d n=%d distinct=%d: position %d is (%d,%d), want (%d,%d)",
							procs, n, distinct, i, keys[i], idx[i], want[i].key, want[i].idx)
					}
				}
			}
		}
		runtime.GOMAXPROCS(old)
	}
}

// The small-input paths no longer go through reflection: a warmed Sorter
// sorts and semisorts sub-cutoff inputs without allocating.
func TestSmallSortsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	orig := make([]uint64, 1000)
	for i := range orig {
		orig[i] = uint64(rng.Intn(64))
	}
	keys := make([]uint64, len(orig))
	idx := make([]uint32, len(orig))
	var s Sorter[uint32]
	var e Sorter[uint64]
	run := func() {
		copy(keys, orig)
		s.SortPairs(keys, idx)
		copy(keys, orig)
		e.Semisort(keys, func(k uint64) uint64 { return k })
		copy(keys, orig)
		SortKeys(keys)
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs > 0 {
		t.Errorf("small SortPairs + Semisort + SortKeys allocated %.0f times, want 0", allocs)
	}
}

// The retention rule: a buffer survives same-sized and moderately smaller
// batches, and is released once it is more than 4x+slack oversized.
func TestScratchRetention(t *testing.T) {
	big := make([]int, 200_000)
	if Keep(big, 200_000) == nil || Keep(big, 50_000) == nil {
		t.Error("Keep released a buffer within 4x of the batch")
	}
	if Keep(big, 16) != nil {
		t.Error("Keep retained a 200k buffer for a 16-element batch")
	}
	small := make([]int, scratchSlack)
	if Keep(small, 0) == nil {
		t.Error("Keep released a buffer within the slack")
	}
	if got := Resize(big, 16); len(got) != 16 || cap(got) != 16 {
		t.Errorf("Resize(200k buffer, 16) has len %d cap %d, want a fresh 16", len(got), cap(got))
	}
	if got := Resize(big, 100_000); len(got) != 100_000 || &got[0] != &big[0] {
		t.Error("Resize did not reuse a buffer within 4x of the batch")
	}

	var s Sorter[uint32]
	keys, idx := benchKeys(1, 100_000), make([]uint32, 100_000)
	s.SortPairs(keys, idx)
	s.Trim(100_000)
	if cap(s.buf) < 100_000 || cap(s.keysAlt) < 100_000 {
		t.Error("Trim released scratch after a same-sized batch")
	}
	s.Trim(16)
	if s.buf != nil || s.keysAlt != nil {
		t.Error("Trim kept bulk-sized scratch after a 16-element batch")
	}
}
