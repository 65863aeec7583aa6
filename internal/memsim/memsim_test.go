package memsim

import (
	"sync"
	"testing"
)

func TestColdMissThenHit(t *testing.T) {
	c := NewCache(1<<20, 8)
	c.Read(0, 8)
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("after cold read: %+v", s)
	}
	c.Read(0, 8)
	s = c.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("after warm read: %+v", s)
	}
	if s.FillBytes != LineSize {
		t.Fatalf("fill bytes = %d", s.FillBytes)
	}
}

func TestMultiLineAccess(t *testing.T) {
	c := NewCache(1<<20, 8)
	// 100 bytes starting at 60 spans lines 0, 1, 2.
	c.Read(60, 100)
	if s := c.Stats(); s.Misses != 3 {
		t.Fatalf("misses = %d, want 3", s.Misses)
	}
}

func TestZeroSizeAccessIgnored(t *testing.T) {
	c := NewCache(1<<20, 8)
	c.Access(0, 0, false)
	c.Access(0, -5, true)
	if s := c.Stats(); s.Hits+s.Misses != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	c := NewCache(LineSize*2, 1) // 2 sets, direct-mapped
	// Write line 0, then read lines mapping to the same set to evict it.
	c.Write(0, 8)
	c.Read(2*LineSize, 8) // same set (stride = nsets * LineSize = 2 lines)
	s := c.Stats()
	if s.WBBytes != LineSize {
		t.Fatalf("write-back bytes = %d, want %d (stats %+v)", s.WBBytes, LineSize, s)
	}
}

func TestLRUWithinSet(t *testing.T) {
	// 1 set, 2 ways: addresses are all in the same set.
	c := NewCache(LineSize*2, 2)
	c.Read(0*LineSize, 1) // miss, resident {0}
	c.Read(1*LineSize, 1) // miss, resident {0,1}
	c.Read(0*LineSize, 1) // hit, 0 is MRU
	c.Read(2*LineSize, 1) // miss, evicts LRU=1
	before := c.Stats()
	c.Read(0*LineSize, 1) // should still be resident
	if s := c.Stats(); s.Hits-before.Hits != 1 || s.Misses != before.Misses {
		t.Fatalf("line 0 evicted: %+v", s)
	}
	c.Read(1*LineSize, 1) // was evicted: miss
	if s := c.Stats(); s.Misses-before.Misses != 1 {
		t.Fatalf("line 1 not evicted: %+v", s)
	}
}

func TestWorkingSetLargerThanCacheThrashes(t *testing.T) {
	c := NewCache(1<<14, 4) // 16 KB
	// Stream 1 MB twice; second pass should still be nearly all misses.
	n := 1 << 20 / LineSize
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			c.Read(uint64(i)*LineSize, 1)
		}
	}
	s := c.Stats()
	if ratio := float64(s.Hits) / float64(s.Hits+s.Misses); ratio > 0.01 {
		t.Fatalf("hit ratio %f for thrashing workload", ratio)
	}
}

func TestWorkingSetSmallerThanCacheStaysResident(t *testing.T) {
	c := NewCache(1<<20, 16) // 1 MB
	n := 1 << 16 / LineSize  // 64 KB working set
	for i := 0; i < n; i++ {
		c.Read(uint64(i)*LineSize, 1)
	}
	before := c.Stats()
	for i := 0; i < n; i++ {
		c.Read(uint64(i)*LineSize, 1)
	}
	if m := c.Stats().Misses - before.Misses; m != 0 {
		t.Fatalf("resident working set missed %d times", m)
	}
}

func TestConcurrentAccessIsSafe(t *testing.T) {
	c := NewCache(1<<18, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				c.Read(uint64((w*10000+i)*8), 8)
			}
		}(w)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits+s.Misses == 0 {
		t.Fatal("no accesses recorded")
	}
	// 80000 8-byte accesses = 10000 distinct lines from each worker
	// region; counts must add up.
	if s.Hits+s.Misses != 80000 {
		t.Fatalf("accesses = %d, want 80000", s.Hits+s.Misses)
	}
}

func TestAllocatorDistinctRanges(t *testing.T) {
	a := NewAllocator()
	addr1 := a.Alloc(100)
	addr2 := a.Alloc(50)
	if addr2 < addr1+100 {
		t.Fatalf("overlapping allocations: %d, %d", addr1, addr2)
	}
	if addr1 == 0 {
		t.Fatal("address 0 should be reserved")
	}
}

func TestAllocatorAlignment(t *testing.T) {
	a := NewAllocator()
	for i := 0; i < 100; i++ {
		if addr := a.Alloc(13); addr%8 != 0 {
			t.Fatalf("unaligned address %d", addr)
		}
	}
}

func TestAllocatorConcurrent(t *testing.T) {
	a := NewAllocator()
	const n = 1000
	addrs := make([]uint64, 8*n)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				addrs[w*n+i] = a.Alloc(64)
			}
		}(w)
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for _, addr := range addrs {
		if seen[addr] {
			t.Fatalf("duplicate address %d", addr)
		}
		seen[addr] = true
	}
}

func TestStatsDRAMBytes(t *testing.T) {
	s := Stats{FillBytes: 100, WBBytes: 28}
	if s.DRAMBytes() != 128 {
		t.Fatal("DRAMBytes wrong")
	}
}

func TestNewCacheTinyWays(t *testing.T) {
	c := NewCache(LineSize, 0) // ways clamped to 1
	c.Read(0, 1)
	if s := c.Stats(); s.Misses != 1 {
		t.Fatal("tiny cache broken")
	}
}

func TestAccessReturnsMissCount(t *testing.T) {
	c := NewCache(1<<20, 8)
	if m := c.Read(0, 2*LineSize); m != 2 {
		t.Fatalf("cold misses = %d, want 2", m)
	}
	if m := c.Read(0, 2*LineSize); m != 0 {
		t.Fatalf("warm misses = %d, want 0", m)
	}
}
