package bench

import (
	"bytes"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestModeledCSVIdenticalAcrossGOMAXPROCS is the paper-fidelity contract,
// in process: every experiment of the table — all of `-experiment all`
// plus shardscale and saturate — emits the same CSV bytes on one proc and
// on four. The batches and builds are large
// enough that a baseline forking into the LLC simulator fails here (all
// 20 Pkd-tree/zd-tree rows of fig5a did when the baselines forked above
// 4096 elements).
func TestModeledCSVIdenticalAcrossGOMAXPROCS(t *testing.T) {
	p := Params{Seed: 42, WarmupN: 20000, BatchOps: 2000, Dims: 3, P: 256}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, e := range Experiments {
		var out [2]bytes.Buffer
		for i, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			if err := e.Run(p, &out[i], true); err != nil {
				t.Fatalf("%s at GOMAXPROCS=%d: %v", e.ID, procs, err)
			}
		}
		if out[0].Len() == 0 {
			t.Errorf("%s: empty output", e.ID)
		}
		if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
			t.Errorf("%s: CSV differs between GOMAXPROCS 1 and 4:\n%s", e.ID,
				diffLines(out[0].String(), out[1].String(), "1", "4"))
		}
	}
}

// diffLines lists the lines that differ between two equally shaped
// outputs, each prefixed with its output's label.
func diffLines(a, b, la, lb string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	var sb strings.Builder
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			sb.WriteString("  " + la + ": " + al[i] + "\n")
			if i < len(bl) {
				sb.WriteString("  " + lb + ": " + bl[i] + "\n")
			}
		}
	}
	return sb.String()
}

func TestSelect(t *testing.T) {
	all, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range all {
		if e.ID == "saturate" || e.ID == "shardscale" {
			t.Errorf("all includes %s", e.ID)
		}
	}
	if len(all) != len(Experiments)-2 {
		t.Errorf("all selects %d of %d experiments", len(all), len(Experiments))
	}

	got, err := Select("fig6, shardscale,datasets")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].ID != "fig6" || got[1].ID != "shardscale" || got[2].ID != "datasets" {
		t.Errorf("list selection = %v", got)
	}

	// An unknown id anywhere in the list selects nothing, so the CLI fails
	// before the experiments listed ahead of it have run.
	got, err = Select("fig6,bogus")
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) || got != nil {
		t.Errorf("Select(fig6,bogus) = %v, %v", got, err)
	}

	usage := ExperimentUsage()
	for _, e := range Experiments {
		if !strings.Contains(usage, e.ID) {
			t.Errorf("usage omits %s: %s", e.ID, usage)
		}
	}
}

// TestShardScaleClaims asserts what the panel exists to show, and pins
// its CSV byte for byte to testdata/shardscale.csv — the output of
// `pimzd-bench -experiment shardscale -format csv -seed 42 -warmup 20000
// -batch 2000 -dims 3 -p 256` — so the S=1 row and the router's charges
// cannot drift across a refactor of the shard index. A deliberate change
// to the panel's numbers regenerates the file with that command.
func TestShardScaleClaims(t *testing.T) {
	p := Params{Seed: 42, WarmupN: 20000, BatchOps: 2000, Dims: 3, P: 256}
	var s1, s8 float64
	scaleN := map[int]float64{}
	var storm *ShardScaleRow
	rows := ShardScale(p)
	var got bytes.Buffer
	if err := ShardScaleCSV(&got, rows); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/shardscale.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("shardscale CSV differs from testdata/shardscale.csv:\n%s",
			diffLines(string(want), got.String(), "want", "got"))
	}
	for i, r := range rows {
		switch {
		case r.Section == "scale_s" && r.S == 1:
			s1 = r.ThroughputMOps
		case r.Section == "scale_s" && r.S == 8:
			s8 = r.ThroughputMOps
		case r.Section == "scale_n":
			scaleN[r.N] = r.CommBytesPerQuery
		case r.Section == "storm":
			storm = &rows[i]
		}
	}
	if s1 <= 0 || s8 <= s1 {
		t.Errorf("scale_s: S=8 modeled throughput %.3g Mq/s not above S=1 %.3g", s8, s1)
	}
	for _, n := range []int{p.WarmupN, 10 * p.WarmupN} {
		if scaleN[n] != 16 {
			t.Errorf("scale_n: %g channel bytes per routed search at n=%d, want exactly 16", scaleN[n], n)
		}
	}
	if storm == nil || storm.ImbalanceAfter >= storm.ImbalanceBefore {
		t.Errorf("storm: rebalance did not lower the imbalance: %+v", storm)
	}
}
