package bench

import (
	"strings"
	"testing"
)

// TestModeledCSVIdenticalAcrossGOMAXPROCS is the paper-fidelity contract,
// in process: every experiment of the table — all of `-experiment all`
// plus shardscale and saturate — writes the same CSV and the same rendered
// table on one proc and on four. These are the only runs of the
// experiments in this package's tests: the claims read them too.
func TestModeledCSVIdenticalAcrossGOMAXPROCS(t *testing.T) {
	for _, e := range Experiments {
		out := modeledRun(e.ID)
		for i, procs := range []string{"1", "4"} {
			if out[i].err != nil {
				t.Fatalf("%s at GOMAXPROCS=%s: %v", e.ID, procs, out[i].err)
			}
		}
		if out[0].csv == "" || out[0].text == "" {
			t.Errorf("%s: empty output", e.ID)
		}
		if out[0].csv != out[1].csv {
			t.Errorf("%s: CSV differs between GOMAXPROCS 1 and 4:\n%s", e.ID,
				diffLines(out[0].csv, out[1].csv, "1", "4"))
		}
		if out[0].text != out[1].text {
			t.Errorf("%s: rendered table differs between GOMAXPROCS 1 and 4:\n%s", e.ID,
				diffLines(out[0].text, out[1].text, "1", "4"))
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
