// Package memsim provides a set-associative last-level-cache simulator and
// a synthetic address allocator.
//
// The paper's evaluation reports "per-element memory traffic": the bytes
// crossing the memory bus per returned element, including CPU–DRAM traffic
// of the shared-memory baselines. Measuring the baselines' DRAM traffic
// requires a model of the host LLC — upper tree levels stay resident and
// cost nothing, leaf-level accesses miss and pull cache lines. memsim
// provides exactly that: trees allocate synthetic addresses for their nodes
// and report each logical access; the simulator tracks hits, misses, and
// the resulting DRAM byte traffic.
//
// Replacement is LRU within a set (approximated with an access clock), so
// hits, misses and write-backs depend on the order of accesses, and the
// Allocator's addresses on the order of allocations. The instrumented
// callers (zdtree and pkdtree with Config.Cache set) are therefore serial
// by construction — every batch runs its recursion and its queries in
// index order — which makes the modeled traffic one fixed number at any
// GOMAXPROCS. The
// per-set locks and atomic counters are for safety (a Cache shared by
// goroutines stays consistent), not for ordering.
package memsim

import (
	"sync"
	"sync/atomic"
)

// LineSize is the cache line (and DRAM burst) size in bytes.
const LineSize = 64

// Cache simulates a set-associative LLC. The zero value is not usable;
// construct with NewCache.
type Cache struct {
	sets    []set
	setMask uint64
	ways    int
	clock   atomic.Uint64
	hits    atomic.Int64
	misses  atomic.Int64
	wbBytes atomic.Int64 // write-back traffic
	rdBytes atomic.Int64 // fill traffic
}

type set struct {
	mu    sync.Mutex
	tags  []uint64
	stamp []uint64
	dirty []bool
	valid []bool
}

// NewCache returns a cache of the given capacity in bytes with the given
// associativity. Capacity is rounded down to a power-of-two number of sets.
func NewCache(capacityBytes int64, ways int) *Cache {
	if ways < 1 {
		ways = 1
	}
	nsets := capacityBytes / int64(ways) / LineSize
	// Round down to a power of two (at least 1).
	p := int64(1)
	for p*2 <= nsets {
		p *= 2
	}
	nsets = p
	c := &Cache{
		sets:    make([]set, nsets),
		setMask: uint64(nsets - 1),
		ways:    ways,
	}
	for i := range c.sets {
		c.sets[i] = set{
			tags:  make([]uint64, ways),
			stamp: make([]uint64, ways),
			dirty: make([]bool, ways),
			valid: make([]bool, ways),
		}
	}
	return c
}

// Access simulates a read (write=false) or write (write=true) of size bytes
// at the synthetic address addr, touching every cache line in the range.
// Misses add LineSize bytes of fill traffic (plus write-back traffic when a
// dirty line is evicted). It returns the number of lines that missed, which
// callers use to count latency-bound dependent misses (pointer chasing).
func (c *Cache) Access(addr uint64, size int, write bool) (misses int) {
	if size <= 0 {
		return 0
	}
	first := addr / LineSize
	last := (addr + uint64(size) - 1) / LineSize
	for line := first; line <= last; line++ {
		if !c.accessLine(line, write) {
			misses++
		}
	}
	return misses
}

// Read is shorthand for Access(addr, size, false).
func (c *Cache) Read(addr uint64, size int) int { return c.Access(addr, size, false) }

// Write is shorthand for Access(addr, size, true).
func (c *Cache) Write(addr uint64, size int) int { return c.Access(addr, size, true) }

// accessLine touches one line and reports whether it hit.
func (c *Cache) accessLine(line uint64, write bool) bool {
	s := &c.sets[line&c.setMask]
	now := c.clock.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	// Hit?
	for w := 0; w < c.ways; w++ {
		if s.valid[w] && s.tags[w] == line {
			s.stamp[w] = now
			if write {
				s.dirty[w] = true
			}
			c.hits.Add(1)
			return true
		}
	}
	// Miss: fill, evicting LRU.
	c.misses.Add(1)
	c.rdBytes.Add(LineSize)
	victim := 0
	var oldest uint64 = ^uint64(0)
	for w := 0; w < c.ways; w++ {
		if !s.valid[w] {
			victim = w
			oldest = 0
			break
		}
		if s.stamp[w] < oldest {
			oldest = s.stamp[w]
			victim = w
		}
	}
	if s.valid[victim] && s.dirty[victim] {
		c.wbBytes.Add(LineSize)
	}
	s.tags[victim] = line
	s.stamp[victim] = now
	s.valid[victim] = true
	s.dirty[victim] = write
	return false
}

// Stats is a snapshot of cache activity.
type Stats struct {
	Hits, Misses       int64
	FillBytes, WBBytes int64
}

// DRAMBytes returns the total DRAM traffic (fills plus write-backs).
func (s Stats) DRAMBytes() int64 { return s.FillBytes + s.WBBytes }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		FillBytes: c.rdBytes.Load(),
		WBBytes:   c.wbBytes.Load(),
	}
}

// Allocator hands out non-overlapping synthetic address ranges, simulating
// a heap for the node structures of the baseline trees.
type Allocator struct {
	next atomic.Uint64
}

// NewAllocator returns an allocator starting at a non-zero base.
func NewAllocator() *Allocator {
	a := &Allocator{}
	a.next.Store(LineSize) // keep 0 distinguishable as "no address"
	return a
}

// Alloc reserves size bytes and returns the base address, aligned to 8.
func (a *Allocator) Alloc(size int) uint64 {
	aligned := (uint64(size) + 7) &^ 7
	return a.next.Add(aligned) - aligned
}
