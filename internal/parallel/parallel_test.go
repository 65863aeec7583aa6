package parallel

import (
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndexes(t *testing.T) {
	for _, n := range []int{0, 1, 7, grain, grain + 1, 3*grain + 5} {
		seen := make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForRange(t *testing.T) {
	var sum atomic.Int64
	ForRange(10, 20, func(i int) { sum.Add(int64(i)) })
	if got := sum.Load(); got != 145 {
		t.Fatalf("sum = %d, want 145", got)
	}
	// Empty and inverted ranges are no-ops.
	ForRange(5, 5, func(i int) { t.Fatal("should not run") })
	ForRange(6, 5, func(i int) { t.Fatal("should not run") })
}

func TestBlocksPartition(t *testing.T) {
	for _, n := range []int{0, 1, 5, 1000} {
		covered := make([]int32, n)
		Blocks(n, func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&covered[i], 1)
			}
		})
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("n=%d index %d covered %d times", n, i, c)
			}
		}
	}
}

func TestDo(t *testing.T) {
	var a, b, c atomic.Bool
	Do(func() { a.Store(true) }, func() { b.Store(true) }, func() { c.Store(true) })
	if !a.Load() || !b.Load() || !c.Load() {
		t.Fatal("not all thunks ran")
	}
	Do() // zero thunks is a no-op
	ran := false
	Do(func() { ran = true })
	if !ran {
		t.Fatal("single thunk did not run")
	}
}

func TestMap(t *testing.T) {
	in := []int{1, 2, 3, 4}
	out := Map(in, func(v int) int { return v * v })
	want := []int{1, 4, 9, 16}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v", out)
		}
	}
}

func TestMapIndex(t *testing.T) {
	out := MapIndex([]string{"a", "b"}, func(i int, s string) int { return i })
	if out[0] != 0 || out[1] != 1 {
		t.Fatalf("out = %v", out)
	}
}

func TestReduce(t *testing.T) {
	n := 100000
	in := make([]int64, n)
	for i := range in {
		in[i] = int64(i)
	}
	want := int64(n) * int64(n-1) / 2
	if got := Sum(in); got != want {
		t.Fatalf("Sum = %d, want %d", got, want)
	}
	if got := Reduce(nil, int64(-7), func(a, b int64) int64 { return a + b }); got != -7 {
		t.Fatalf("empty Reduce = %d", got)
	}
}

func TestMaxInt64(t *testing.T) {
	if got := MaxInt64([]int64{3, 9, 2}, -1); got != 9 {
		t.Fatalf("MaxInt64 = %d", got)
	}
	if got := MaxInt64(nil, -1); got != -1 {
		t.Fatalf("empty MaxInt64 = %d", got)
	}
}

func TestExclusiveScan(t *testing.T) {
	offsets, total := ExclusiveScan([]int{3, 1, 4})
	if total != 8 {
		t.Fatalf("total = %d", total)
	}
	want := []int{0, 3, 4}
	for i := range want {
		if offsets[i] != want[i] {
			t.Fatalf("offsets = %v", offsets)
		}
	}
}

func TestFilter(t *testing.T) {
	in := make([]int, 10000)
	for i := range in {
		in[i] = i
	}
	out := Filter(in, func(v int) bool { return v%3 == 0 })
	if len(out) != 3334 {
		t.Fatalf("len = %d", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			t.Fatal("order not preserved")
		}
	}
}

func TestSortKeysMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 100, 5000, 100000} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		want := append([]uint64(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		SortKeys(keys)
		for i := range keys {
			if keys[i] != want[i] {
				t.Fatalf("n=%d: mismatch at %d", n, i)
			}
		}
	}
}

func TestSortKeysFewSignificantBits(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	keys := make([]uint64, 50000)
	for i := range keys {
		keys[i] = uint64(rng.Intn(16)) // only low 4 bits vary
	}
	SortKeys(keys)
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			t.Fatal("not sorted")
		}
	}
}

func TestSortByStable(t *testing.T) {
	type pair struct {
		key uint64
		seq int
	}
	rng := rand.New(rand.NewSource(3))
	items := make([]pair, 30000)
	for i := range items {
		items[i] = pair{key: uint64(rng.Intn(50)), seq: i}
	}
	SortBy(items, func(p pair) uint64 { return p.key })
	for i := 1; i < len(items); i++ {
		if items[i].key < items[i-1].key {
			t.Fatal("not sorted")
		}
		if items[i].key == items[i-1].key && items[i].seq < items[i-1].seq {
			t.Fatal("not stable")
		}
	}
}

func TestSortByProperty(t *testing.T) {
	f := func(keys []uint64) bool {
		items := append([]uint64(nil), keys...)
		SortBy(items, func(k uint64) uint64 { return k })
		for i := 1; i < len(items); i++ {
			if items[i] < items[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSemisort(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	items := make([]uint64, 10000)
	counts := map[uint64]int{}
	for i := range items {
		k := uint64(rng.Intn(37))
		items[i] = k
		counts[k]++
	}
	groups := Semisort(items, func(k uint64) uint64 { return k })
	if len(groups) != len(counts) {
		t.Fatalf("groups = %d, want %d", len(groups), len(counts))
	}
	covered := 0
	for _, g := range groups {
		if g.Hi-g.Lo != counts[g.Key] {
			t.Fatalf("group %d has size %d, want %d", g.Key, g.Hi-g.Lo, counts[g.Key])
		}
		for i := g.Lo; i < g.Hi; i++ {
			if items[i] != g.Key {
				t.Fatal("group contains wrong key")
			}
		}
		covered += g.Hi - g.Lo
	}
	if covered != len(items) {
		t.Fatalf("groups cover %d of %d items", covered, len(items))
	}
}

func TestSemisortEmpty(t *testing.T) {
	if groups := Semisort(nil, func(k uint64) uint64 { return k }); len(groups) != 0 {
		t.Fatal("expected no groups")
	}
}

func TestWorkEstimates(t *testing.T) {
	if CountingSortWork(1000) != 1000 {
		t.Fatal("CountingSortWork wrong")
	}
	if SortWork(0) != 0 || SortWork(1) != 1 {
		t.Fatal("SortWork base cases wrong")
	}
	if SortWork(1024) <= SortWork(512) {
		t.Fatal("SortWork not increasing")
	}
}

func BenchmarkSortKeys1M(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	orig := make([]uint64, 1<<20)
	for i := range orig {
		orig[i] = rng.Uint64()
	}
	keys := make([]uint64, len(orig))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(keys, orig)
		SortKeys(keys)
	}
}

func TestForSingleElement(t *testing.T) {
	ran := false
	For(1, func(i int) {
		if i != 0 {
			t.Errorf("index %d", i)
		}
		ran = true
	})
	if !ran {
		t.Fatal("body did not run")
	}
}

func TestFilterSequentialPath(t *testing.T) {
	out := Filter([]int{1, 2, 3, 4, 5}, func(v int) bool { return v%2 == 1 })
	if len(out) != 3 || out[0] != 1 || out[2] != 5 {
		t.Fatalf("out = %v", out)
	}
	if got := Filter([]int(nil), func(int) bool { return true }); len(got) != 0 {
		t.Fatal("nil filter")
	}
}

func TestReduceSequentialPath(t *testing.T) {
	small := []int64{1, 2, 3}
	if got := Reduce(small, 0, func(a, b int64) int64 { return a + b }); got != 6 {
		t.Fatalf("got %d", got)
	}
}

func TestSemisortSingleGroup(t *testing.T) {
	items := []uint64{7, 7, 7}
	groups := Semisort(items, func(k uint64) uint64 { return k })
	if len(groups) != 1 || groups[0].Lo != 0 || groups[0].Hi != 3 {
		t.Fatalf("groups = %+v", groups)
	}
}

func TestSortKeysAllEqual(t *testing.T) {
	keys := make([]uint64, 10000)
	for i := range keys {
		keys[i] = 42
	}
	SortKeys(keys) // the varying-digit skip must handle zero varying bits
	for _, k := range keys {
		if k != 42 {
			t.Fatal("keys changed")
		}
	}
}

func TestBlocksSingleWorkerPath(t *testing.T) {
	var calls int
	Blocks(1, func(w, lo, hi int) {
		calls++
		if w != 0 || lo != 0 || hi != 1 {
			t.Fatalf("w=%d lo=%d hi=%d", w, lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
}

// TestParallelPathsUnderGOMAXPROCS forces a multi-proc setting so the
// goroutine-splitting branches run even on single-core CI machines.
func TestParallelPathsUnderGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	n := 3*grain + 17
	seen := make([]int32, n)
	For(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}

	in := make([]int64, 5*grain)
	for i := range in {
		in[i] = 1
	}
	if got := Sum(in); got != int64(len(in)) {
		t.Fatalf("Sum = %d", got)
	}

	big := make([]int, 4*grain)
	for i := range big {
		big[i] = i
	}
	out := Filter(big, func(v int) bool { return v%2 == 0 })
	if len(out) != len(big)/2 {
		t.Fatalf("filter len = %d", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			t.Fatal("parallel filter lost order")
		}
	}
}

// TestForDynamic checks the coarse-grained loop's contract: every index is
// covered exactly once by runs that stay inside [0, n), worker ids stay
// below the worker count, and a single proc (or n <= 1) runs on the caller.
func TestForDynamic(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	for _, n := range []int{0, 1, 2, 3, 31, 32, 33, 1000} {
		seen := make([]int32, n)
		ForDynamic(n, func(w, lo, hi int) {
			if w < 0 || w >= 4 || lo < 0 || lo >= hi || hi > n {
				t.Errorf("n=%d: body(%d, %d, %d)", n, w, lo, hi)
				return
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}

	runtime.GOMAXPROCS(1)
	calls := 0 // unsynchronized on purpose: one proc must mean one goroutine
	ForDynamic(100, func(w, lo, hi int) {
		calls++
		if w != 0 || lo != 0 || hi != 100 {
			t.Errorf("single proc: body(%d, %d, %d)", w, lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("single proc: %d calls, want 1", calls)
	}
}
