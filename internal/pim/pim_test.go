package pim

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"pimzdtree/internal/costmodel"
	"pimzdtree/internal/obs"
)

func newTestSystem(p int) *System {
	m := costmodel.UPMEMServer()
	m.PIMModules = p
	return NewSystem(m)
}

func TestNewSystemPanicsWithoutModules(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSystem(costmodel.BaselineServer())
}

func TestRoundRunsAllActiveModules(t *testing.T) {
	s := newTestSystem(64)
	var ran atomic.Int64
	active := []int{3, 7, 11, 63}
	st := s.Round(active, func(m *Module) {
		ran.Add(1)
		m.Work(int64(m.ID))
	})
	if ran.Load() != int64(len(active)) {
		t.Fatalf("handlers ran %d times", ran.Load())
	}
	if st.MaxCycles != 63 {
		t.Fatalf("MaxCycles = %d, want 63", st.MaxCycles)
	}
	if st.TotalCycles != 3+7+11+63 {
		t.Fatalf("TotalCycles = %d", st.TotalCycles)
	}
	if st.ActiveModules != 4 {
		t.Fatalf("ActiveModules = %d", st.ActiveModules)
	}
}

func TestRoundAccumulatesMetrics(t *testing.T) {
	s := newTestSystem(16)
	s.Round([]int{0, 1}, func(m *Module) {
		m.Recv(100)
		m.Work(50)
		m.Send(30)
	})
	s.Round([]int{2}, func(m *Module) {
		m.Work(10)
	})
	got := s.Metrics()
	if got.Rounds != 2 {
		t.Fatalf("Rounds = %d", got.Rounds)
	}
	if got.BytesToPIM != 200 || got.BytesFromPIM != 60 {
		t.Fatalf("traffic = %d/%d", got.BytesToPIM, got.BytesFromPIM)
	}
	if got.PIMCycleSum != 60 { // max 50 + max 10
		t.Fatalf("PIMCycleSum = %d", got.PIMCycleSum)
	}
	if got.PIMCycleTotal != 110 {
		t.Fatalf("PIMCycleTotal = %d", got.PIMCycleTotal)
	}
	if got.ChannelBytes() != 260 {
		t.Fatalf("ChannelBytes = %d", got.ChannelBytes())
	}
}

func TestRoundCountersResetBetweenRounds(t *testing.T) {
	s := newTestSystem(4)
	s.Round([]int{0}, func(m *Module) { m.Work(100) })
	st := s.Round([]int{0}, func(m *Module) { m.Work(1) })
	if st.MaxCycles != 1 {
		t.Fatalf("cycles leaked across rounds: %d", st.MaxCycles)
	}
}

func TestEmptyRoundStillCountsMux(t *testing.T) {
	s := newTestSystem(4)
	st := s.Round(nil, func(m *Module) {})
	if st.Seconds <= 0 {
		t.Fatal("empty round should cost mux time")
	}
	if got := s.Metrics(); got.Rounds != 1 {
		t.Fatal("round not counted")
	}
}

func TestPIMAndCommSecondsSplit(t *testing.T) {
	s := newTestSystem(8)
	s.Round([]int{0}, func(m *Module) {
		m.Work(1_000_000)
		m.Send(1 << 20)
	})
	got := s.Metrics()
	if got.PIMSeconds <= 0 || got.CommSeconds <= 0 {
		t.Fatalf("breakdown = %+v", got)
	}
	wantPIM := 1_000_000 / (s.Machine.PIMHz * s.Machine.PIMIPC)
	if diff := got.PIMSeconds - wantPIM; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("PIMSeconds = %g, want %g", got.PIMSeconds, wantPIM)
	}
	if got.TotalSeconds() != got.CPUSeconds+got.PIMSeconds+got.CommSeconds {
		t.Fatal("TotalSeconds mismatch")
	}
}

func TestDirectAPIReducesRoundTime(t *testing.T) {
	direct := newTestSystem(2048)
	sdk := newTestSystem(2048)
	sdk.DirectAPI = false
	all := direct.AllModules()
	h := func(m *Module) { m.Work(1) }
	td := direct.Round(all, h)
	ts := sdk.Round(all, h)
	if ts.Seconds <= td.Seconds {
		t.Fatalf("SDK round %g should be slower than direct %g", ts.Seconds, td.Seconds)
	}
}

func TestCPUPhase(t *testing.T) {
	s := newTestSystem(4)
	s.CPUPhase(1000, 2000, 3)
	got := s.Metrics()
	if got.CPUWork != 1000 || got.CPUTraffic != 2000 || got.CPUChase != 3 {
		t.Fatalf("CPU metrics = %+v", got)
	}
	if got.CPUSeconds <= 0 {
		t.Fatal("CPU seconds not accumulated")
	}
	if got.BusBytes() != 2000 {
		t.Fatalf("BusBytes = %d", got.BusBytes())
	}
}

func TestMetricsSub(t *testing.T) {
	s := newTestSystem(4)
	s.CPUPhase(100, 0, 0)
	before := s.Metrics()
	s.Round([]int{1}, func(m *Module) { m.Work(7); m.Send(8) })
	delta := s.Metrics().Sub(before)
	if delta.CPUWork != 0 {
		t.Fatalf("delta.CPUWork = %d", delta.CPUWork)
	}
	if delta.Rounds != 1 || delta.PIMCycleSum != 7 || delta.BytesFromPIM != 8 {
		t.Fatalf("delta = %+v", delta)
	}
}

// TestMetricsAdd: Add is Sub's inverse on every field — a field added to
// Metrics but forgotten in Add (or Sub) fails here.
func TestMetricsAdd(t *testing.T) {
	var a, b Metrics
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		switch av.Field(i).Kind() {
		case reflect.Int64:
			av.Field(i).SetInt(int64(10 + i))
			bv.Field(i).SetInt(int64(100 * (i + 1)))
		case reflect.Float64:
			av.Field(i).SetFloat(0.5 + float64(i))
			bv.Field(i).SetFloat(0.25 * float64(i+1))
		default:
			t.Fatalf("field %s: unhandled kind %s", av.Type().Field(i).Name, av.Field(i).Kind())
		}
	}
	sum := a.Add(b)
	if got := sum.Sub(b); got != a {
		t.Fatalf("(a+b)-b = %+v, want %+v", got, a)
	}
	if got := b.Add(a); got != sum {
		t.Fatalf("b+a = %+v, want a+b = %+v", got, sum)
	}
	if sum.Rounds != a.Rounds+b.Rounds || sum.CommSeconds != a.CommSeconds+b.CommSeconds {
		t.Fatalf("sum = %+v", sum)
	}
}

func TestResetMetrics(t *testing.T) {
	s := newTestSystem(4)
	s.Module(2).StoreBytes(500)
	s.CPUPhase(10, 0, 0)
	s.ResetMetrics()
	if got := s.Metrics(); got.CPUWork != 0 || got.Rounds != 0 {
		t.Fatal("metrics not reset")
	}
	if total, _ := s.StoredBytesTotal(); total != 500 {
		t.Fatal("stored bytes should survive reset")
	}
}

func TestStoredBytes(t *testing.T) {
	s := newTestSystem(4)
	s.Module(0).StoreBytes(100)
	s.Module(1).StoreBytes(300)
	s.Module(0).StoreBytes(-50)
	total, max := s.StoredBytesTotal()
	if total != 350 || max != 300 {
		t.Fatalf("total=%d max=%d", total, max)
	}
	if s.Module(0).StoredBytes() != 50 {
		t.Fatal("per-module footprint wrong")
	}
}

func TestBroadcast(t *testing.T) {
	s := newTestSystem(32)
	st := s.Broadcast(64)
	if st.BytesToPIM != 64*32 {
		t.Fatalf("broadcast bytes = %d", st.BytesToPIM)
	}
	if st.ActiveModules != 32 {
		t.Fatal("broadcast should touch all modules")
	}
}

func TestModuleOfDeterministicAndSpread(t *testing.T) {
	s := newTestSystem(256)
	if s.ModuleOf(12345) != s.ModuleOf(12345) {
		t.Fatal("ModuleOf not deterministic")
	}
	// Sequential keys should spread across many modules.
	seen := map[int]bool{}
	for k := uint64(0); k < 1024; k++ {
		seen[s.ModuleOf(k)] = true
	}
	if len(seen) < 200 {
		t.Fatalf("sequential keys landed on only %d of 256 modules", len(seen))
	}
}

func TestHash64Avalanche(t *testing.T) {
	// Flipping one input bit should flip many output bits on average.
	var totalFlips int
	for bit := 0; bit < 64; bit++ {
		h1 := Hash64(0)
		h2 := Hash64(1 << bit)
		diff := h1 ^ h2
		for ; diff != 0; diff &= diff - 1 {
			totalFlips++
		}
	}
	if avg := float64(totalFlips) / 64; avg < 24 || avg > 40 {
		t.Fatalf("avalanche average %f bits, want ~32", avg)
	}
}

func TestImbalanced(t *testing.T) {
	// 10 modules, loads {30,1,...}: mean over P=10 of total 39 is 3.9;
	// max 30 > 11.7 -> imbalanced.
	loads := []int{30, 1, 2, 3, 3, 0, 0, 0, 0, 0}
	if !Imbalanced(loads, 10) {
		t.Fatal("should be imbalanced")
	}
	// Even loads are balanced.
	even := make([]int, 10)
	for i := range even {
		even[i] = 5
	}
	if Imbalanced(even, 10) {
		t.Fatal("even loads flagged imbalanced")
	}
	if Imbalanced(nil, 10) {
		t.Fatal("empty loads flagged imbalanced")
	}
	if Imbalanced(make([]int, 10), 10) {
		t.Fatal("all-idle loads flagged imbalanced")
	}
}

func TestAllModules(t *testing.T) {
	s := newTestSystem(5)
	ids := s.AllModules()
	if len(ids) != 5 || ids[0] != 0 || ids[4] != 4 {
		t.Fatalf("AllModules = %v", ids)
	}
}

func TestString(t *testing.T) {
	s := newTestSystem(5)
	if s.String() != "pim.System{P=5, direct=true}" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestModulesIsolatedAcrossHandlers(t *testing.T) {
	// Each handler only writes its own module; verify sums are per-module.
	s := newTestSystem(100)
	s.Round(s.AllModules(), func(m *Module) {
		m.Work(int64(m.ID + 1))
	})
	got := s.Metrics()
	if got.PIMCycleSum != 100 {
		t.Fatalf("max cycles = %d, want 100", got.PIMCycleSum)
	}
	if got.PIMCycleTotal != 5050 {
		t.Fatalf("total cycles = %d, want 5050", got.PIMCycleTotal)
	}
}

// recordedRounds returns the round events rec retained, in order.
func recordedRounds(rec *obs.Recorder) []obs.RoundInfo {
	var rounds []obs.RoundInfo
	for _, e := range rec.Events() {
		if e.Kind == obs.KindRound {
			rounds = append(rounds, *e.Round)
		}
	}
	return rounds
}

// TestTraceRecordsRounds: with a recorder attached, every round lands in
// it in execution order with its counters; detaching stops the recording
// and keeps what was recorded.
func TestTraceRecordsRounds(t *testing.T) {
	s := newTestSystem(8)
	rec := obs.New()
	s.SetRecorder(rec)
	s.Round([]int{0, 1}, func(m *Module) { m.Work(10); m.Recv(4); m.Send(2) })
	s.Round([]int{2}, func(m *Module) { m.Work(5) })
	tr := recordedRounds(rec)
	if len(tr) != 2 {
		t.Fatalf("recorded %d rounds, want 2", len(tr))
	}
	if tr[0].Seq != 1 || tr[1].Seq != 2 {
		t.Fatalf("sequence numbers %d, %d", tr[0].Seq, tr[1].Seq)
	}
	if tr[0].ActiveModules != 2 || tr[0].MaxCycles != 10 || tr[0].TotalCycles != 20 ||
		tr[0].BytesToPIM != 8 || tr[0].BytesFromPIM != 4 || tr[0].Straggler != -1 {
		t.Fatalf("round 0 = %+v", tr[0])
	}
	if tr[1].Straggler != 2 {
		t.Fatalf("round 1 straggler %d, want module 2", tr[1].Straggler)
	}
	s.SetRecorder(nil)
	s.Round([]int{0}, func(m *Module) {})
	if got := len(recordedRounds(rec)); got != 2 {
		t.Fatalf("detached recorder holds %d rounds, want 2", got)
	}
}

// TestTraceUtilization: a recorded round's utilization is its total cycles
// over the active modules times the slowest module's; an idle round's is 0.
func TestTraceUtilization(t *testing.T) {
	s := newTestSystem(4)
	rec := obs.New()
	s.SetRecorder(rec)
	s.Round(s.AllModules(), func(m *Module) {
		if m.ID < 2 {
			m.Work(100)
		}
	})
	s.Round([]int{0}, func(m *Module) {})
	tr := recordedRounds(rec)
	if u := tr[0].Utilization(); u != 0.5 {
		t.Fatalf("utilization = %f, want 0.5", u)
	}
	if u := tr[1].Utilization(); u != 0 {
		t.Fatalf("idle round utilization = %f, want 0", u)
	}
}

// TestWriteTrace: the recorder's round table shows a round's modules,
// cycles and utilization.
func TestWriteTrace(t *testing.T) {
	s := newTestSystem(4)
	rec := obs.New()
	s.SetRecorder(rec)
	s.Round([]int{0}, func(m *Module) { m.Work(7) })
	var buf strings.Builder
	rec.WriteRounds(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], "round") {
		t.Fatalf("round table:\n%s", buf.String())
	}
	// Outside an op the op and phase columns are blank.
	f := strings.Fields(lines[1])
	if len(f) != 8 || f[0] != "1" || f[1] != "1" || f[2] != "7" || f[3] != "7" || f[7] != "100%" {
		t.Fatalf("round row %q", lines[1])
	}
}

// TestRoundSchedule pins a round's schedule: the handlers run one after
// another on the caller, in active order, each exactly once. order takes
// no lock, so the race detector would flag a handler on a second goroutine.
func TestRoundSchedule(t *testing.T) {
	const p = 64
	s := newTestSystem(p)
	calls := make([]int, p)
	var order []int
	s.Round(s.AllModules(), func(m *Module) {
		calls[m.ID]++
		order = append(order, m.ID)
	})
	for id, c := range calls {
		if c != 1 {
			t.Fatalf("module %d: handler ran %d times, want 1", id, c)
		}
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("round visited %v, want ascending", order)
		}
	}
}

// TestSerialRoundAllocatesNothing guards the small-round path the serving
// workloads live on (tens of thousands of rounds of a few modules each).
// The second handler captures locals, as the tree's charge rounds do: a
// round that let its handler escape would move them to the heap.
func TestSerialRoundAllocatesNothing(t *testing.T) {
	s := newTestSystem(8)
	all := s.AllModules()
	if n := testing.AllocsPerRun(100, func() {
		s.Round(all, func(m *Module) { m.Recv(64) })
	}); n != 0 {
		t.Fatalf("serial round allocates %v times, want 0", n)
	}
	work := make([]int64, len(all))
	for i := range work {
		work[i] = int64(i + 1)
	}
	if n := testing.AllocsPerRun(100, func() {
		sent := int64(32)
		s.Round(all, func(m *Module) {
			m.Work(work[m.ID])
			m.Send(sent)
		})
	}); n != 0 {
		t.Fatalf("round with a capturing handler allocates %v times, want 0", n)
	}
}

// BenchmarkRound measures the simulator's own cost per round at the two
// ends: the 8-module byte-delivery round of a small serving epoch
// (pim.host_us_per_round on wire-read and serve-mixed is made of these) and
// a 2048-module charge round of a large wave, whose handlers add up costs
// the host has already computed.
func BenchmarkRound(b *testing.B) {
	b.Run("trivial-8", func(b *testing.B) {
		s := newTestSystem(8)
		all := s.AllModules()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Round(all, func(m *Module) { m.Recv(64) })
		}
	})
	b.Run("charge-2048", func(b *testing.B) {
		s := newTestSystem(2048)
		all := s.AllModules()
		work := make([]int64, len(all))
		for i := range work {
			work[i] = int64(Hash64(uint64(i)) & 0xfff)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Round(all, func(m *Module) {
				m.Recv(8 * 24)
				m.Work(work[m.ID])
				m.Send(8 * 16)
			})
		}
	})
}
