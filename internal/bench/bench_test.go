package bench

import "testing"

func TestDefaultsFill(t *testing.T) {
	var p Params
	p.fill()
	if p.WarmupN == 0 || p.BatchOps == 0 || p.Dims == 0 || p.P == 0 || p.Seed == 0 {
		t.Fatalf("unfilled params: %+v", p)
	}
}

func TestOpCostMath(t *testing.T) {
	c := OpCost{Elements: 100, Seconds: 2, BusBytes: 6400}
	if c.Throughput() != 50 {
		t.Fatal("throughput")
	}
	if c.TrafficPerElem() != 64 {
		t.Fatal("traffic")
	}
}
