package main

import (
	"strings"
	"testing"
)

// TestCheck: -format, -profile and the size flags are refused before
// anything is generated. -p 0 used to panic in the tree's configuration.
func TestCheck(t *testing.T) {
	for _, tc := range []struct {
		format, profile string
		n, batch, p     int
		want            string // "" = accepted
	}{
		{"table", "", 200000, 10000, 2048, ""},
		{"chrome", "modules", 1, 1, 1, ""},
		{"jsonl", "", 20000, 500, 256, ""},
		{"svg", "", 20000, 500, 256, `unknown format "svg"`},
		{"table", "rounds", 20000, 500, 256, `unknown profile "rounds"`},
		{"table", "", 20000, 500, 0, "-p 0: want at least 1"},
		{"table", "", 20000, 500, -3, "-p -3: want at least 1"},
		{"table", "", 0, 500, 256, "-n 0: want at least 1"},
		{"table", "", 20000, 0, 256, "-batch 0: want at least 1"},
		{"table", "", 20000, -1, 256, "-batch -1: want at least 1"},
	} {
		err := check(tc.format, tc.profile, tc.n, tc.batch, tc.p)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("check(%q, %q, n %d, batch %d, p %d) = %v, want %q",
				tc.format, tc.profile, tc.n, tc.batch, tc.p, err, tc.want)
		}
	}
}
