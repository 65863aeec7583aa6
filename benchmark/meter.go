package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"pimzdtree/internal/pim"
)

// nSeg is the number of equal segments a measured region is cut into; every
// timed end-to-end metric is the median of its per-segment values, so a
// slow stretch shorter than half the region does not move it.
const nSeg = 10

// sample is one latency observation: a round of batches on the library
// workloads, a request on the serve workloads.
type sample struct {
	seg   int32 // segment the sample belongs to
	ops   int32 // points or boxes it carried
	latNs int64 // round wall, or due→answered for a request
	ok    bool  // answered, not shed, and correct
}

// region is what one measured region produced.
type region struct {
	samples []sample
	// segWall is the wall time of each segment: the summed round walls on
	// the one-caller fixed-work loops, the slice length on timed regions.
	segWall [nSeg]float64

	wall       float64 // s
	cpu        float64 // s, user+sys of the whole process
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
	heapSysMB  float64
	modeled    pim.Metrics // delta over the region
	modules    int         // PIM modules per rack (P)
	limit      time.Duration

	// Serve workloads only.
	stages  []stageNanos // per answered request
	lateNs  []int64      // open loop: how late each request was sent
	planned int          // open loop: requests the schedule held
	shed    int64
	epochs  int64
}

// meter snapshots the process and the modeled machine around a region.
type meter struct {
	modeled func() pim.Metrics
	t0      time.Time
	ru0     syscall.Rusage
	ms0     runtime.MemStats
	m0      pim.Metrics
}

// begin collects garbage, so every region starts from the same heap state,
// and takes the starting snapshot.
func (m *meter) begin() {
	runtime.GC()
	runtime.ReadMemStats(&m.ms0)
	m.m0 = m.modeled()
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &m.ru0) // cannot fail with RUSAGE_SELF and a valid pointer
	m.t0 = time.Now()
}

func (m *meter) end(r *region) {
	r.wall = time.Since(m.t0).Seconds()
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	r.cpu = tvSeconds(ru.Utime) + tvSeconds(ru.Stime) - tvSeconds(m.ru0.Utime) - tvSeconds(m.ru0.Stime)
	r.modeled = m.modeled().Sub(m.m0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs - m.ms0.Mallocs
	r.allocBytes = ms.TotalAlloc - m.ms0.TotalAlloc
	r.gcCycles = ms.NumGC - m.ms0.NumGC
	r.gcPauseNs = ms.PauseTotalNs - m.ms0.PauseTotalNs
	r.heapSysMB = float64(ms.HeapSys) / (1 << 20)
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// maxRSSMB is the process's peak resident set so far (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

func (r *region) ops() int64 {
	var n int64
	for _, s := range r.samples {
		if s.ok {
			n += int64(s.ops)
		}
	}
	return n
}

// misses counts samples that failed or took longer than the latency limit.
func (r *region) misses() int64 {
	var n int64
	for _, s := range r.samples {
		if !s.ok || time.Duration(s.latNs) > r.limit {
			n++
		}
	}
	return n
}

func (r *region) failed() int64 {
	var n int64
	for _, s := range r.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// segStats returns the per-segment op rates and latency percentiles.
func (r *region) segStats() (rates, p50, p95 []float64, perSeg []int) {
	var ops [nSeg]int64
	var lats [nSeg][]float64
	for _, s := range r.samples {
		if s.ok {
			ops[s.seg] += int64(s.ops)
			lats[s.seg] = append(lats[s.seg], float64(s.latNs)/1e6)
		}
	}
	for i := 0; i < nSeg; i++ {
		if r.segWall[i] <= 0 || len(lats[i]) == 0 {
			continue
		}
		sort.Float64s(lats[i])
		rates = append(rates, float64(ops[i])/r.segWall[i])
		p50 = append(p50, quantileSorted(lats[i], 0.50))
		p95 = append(p95, quantileSorted(lats[i], 0.95))
		perSeg = append(perSeg, len(lats[i]))
	}
	return rates, p50, p95, perSeg
}

// endToEnd computes the end-to-end metrics of the region (setup_s and
// rss_peak_mb are added by the caller, which owns those clocks).
func (r *region) endToEnd() map[string]float64 {
	ops := float64(r.ops())
	rates, p50, p95, _ := r.segStats()
	sent := float64(len(r.samples))
	return map[string]float64{
		"ops_per_s":         median(rates),
		"lat_p50_ms":        median(p50),
		"lat_p95_ms":        median(p95),
		"slo_ok_ratio":      1 - float64(r.misses())/sent,
		"cpu_us_per_op":     r.cpu * 1e6 / ops,
		"allocs_per_op":     float64(r.mallocs) / ops,
		"modeled_mops":      ops / r.modeled.TotalSeconds() / 1e6,
		"chan_bytes_per_op": float64(r.modeled.ChannelBytes()) / ops,
		"pim_imbalance":     float64(r.modeled.PIMCycleSum) * float64(r.modules) / float64(r.modeled.PIMCycleTotal),
	}
}

// runtimeLayer reports the Go runtime's share of the region.
func (r *region) runtimeLayer(out map[string]float64) {
	out["go.gc_cycles"] = float64(r.gcCycles)
	out["go.gc_pause_ms"] = float64(r.gcPauseNs) / 1e6
	out["go.heap_peak_mb"] = r.heapSysMB
	out["go.alloc_bytes_per_op"] = float64(r.allocBytes) / float64(r.ops())
	m := r.modeled
	if tot := m.TotalSeconds(); tot > 0 {
		out["pim.cpu_share"] = m.CPUSeconds / tot
		out["pim.pim_share"] = m.PIMSeconds / tot
		out["pim.comm_share"] = m.CommSeconds / tot
	}
	out["slo.miss_ratio"] = float64(r.misses()) / float64(len(r.samples))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantileSorted is the nearest-rank quantile of an ascending slice.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func quantileInt64(v []int64, q float64) float64 {
	f := make([]float64, len(v))
	for i, x := range v {
		f[i] = float64(x)
	}
	sort.Float64s(f)
	return quantileSorted(f, q)
}

// sampleNote states how many samples stand behind the timed metrics.
func (r *region) sampleNote() string {
	_, _, _, perSeg := r.segStats()
	note := fmt.Sprintf("measured region: %.2f s wall, %d samples (%v per segment), %d ops, %d failed, %d over the %v limit",
		r.wall, len(r.samples), perSeg, r.ops(), r.failed(), r.misses()-r.failed(), r.limit)
	rates, _, _, _ := r.segStats()
	note += fmt.Sprintf("\nsegment rates (op/s): %.0f", rates)
	if r.planned > 0 {
		note += fmt.Sprintf("\nload generator: sent %d of %d, lateness p50 %.3f ms, p90 %.3f ms, p95 %.3f ms, p99 %.3f ms, max %.3f ms", len(r.samples), r.planned,
			quantileInt64(r.lateNs, 0.5)/1e6, quantileInt64(r.lateNs, 0.9)/1e6, quantileInt64(r.lateNs, 0.95)/1e6, quantileInt64(r.lateNs, 0.99)/1e6, quantileInt64(r.lateNs, 1)/1e6)
	}
	return note
}

// Open-loop validity limits: past these the load generator, not the
// system, shaped the numbers. Lateness is not free of the system: generator
// and engine share the process's two scheduler slots, so a request that
// falls due while both run a fork-join phase is sent when one of them next
// yields (p99 4-8 ms on the sizing box, and counted in the latency, which
// runs from the due time). The limit is half the median latency, far above
// that and far below a generator that cannot keep up; and it is set on the
// 95th percentile, because one 80 ms stall of the process, which the sizing
// box produces in about one run in ten, makes 1% of a 10 s schedule late.
const (
	minAchievedRatio = 0.99
	maxLateP95Ms     = 15.0
)

func (r *region) achievedRatio() float64 { return float64(len(r.samples)) / float64(r.planned) }

// invalid explains why an open-loop region cannot be trusted, or returns "".
func (r *region) invalid() string {
	if r.planned == 0 {
		return ""
	}
	if a := r.achievedRatio(); a < minAchievedRatio {
		return fmt.Sprintf("load generator sent %.4f of the schedule (< %.2f)", a, minAchievedRatio)
	}
	if l := quantileInt64(r.lateNs, 0.95) / 1e6; l > maxLateP95Ms {
		return fmt.Sprintf("load generator p95 lateness %.2f ms (> %.0f ms)", l, maxLateP95Ms)
	}
	return ""
}
