package main

import (
	"strings"
	"testing"
)

// TestCheck: -format, -op and the size flags are refused before anything
// is generated. -p 0 used to panic in the tree's configuration; an unknown
// op and a sharded boxfetch used to exit only after the data and the tree
// were built.
func TestCheck(t *testing.T) {
	for _, tc := range []struct {
		format, op            string
		n, batch, p, k, trees int
		want                  string // "" = accepted
	}{
		{"table", "search", 200000, 10000, 2048, 10, 1, ""},
		{"chrome", "boxfetch", 1, 1, 1, 1, 1, ""},
		{"jsonl", "knn", 20000, 500, 256, 16, 4, ""},
		{"svg", "search", 20000, 500, 256, 10, 1, `unknown format "svg"`},
		{"table", "bogus", 20000, 500, 256, 10, 1, `unknown op "bogus"`},
		{"table", "", 20000, 500, 256, 10, 1, `unknown op ""`},
		{"table", "boxfetch", 20000, 500, 256, 10, 4, "boxfetch is not routed through -trees"},
		{"table", "search", 20000, 500, 0, 10, 1, "-p 0: want at least 1"},
		{"table", "search", 20000, 500, -3, 10, 1, "-p -3: want at least 1"},
		{"table", "search", 0, 500, 256, 10, 1, "-n 0: want at least 1"},
		{"table", "search", 20000, 0, 256, 10, 1, "-batch 0: want at least 1"},
		{"table", "search", 20000, -1, 256, 10, 1, "-batch -1: want at least 1"},
		{"table", "search", 20000, 500, 256, 0, 1, "-k 0: want at least 1"},
		{"table", "search", 20000, 500, 256, -2, 1, "-k -2: want at least 1"},
		{"table", "search", 20000, 500, 256, 10, 0, "-trees 0: want at least 1"},
		{"table", "search", 20000, 500, 256, 10, -1, "-trees -1: want at least 1"},
	} {
		err := check(tc.format, tc.op, tc.n, tc.batch, tc.p, tc.k, tc.trees)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("check(%q, %q, n %d, batch %d, p %d, k %d, trees %d) = %v, want %q",
				tc.format, tc.op, tc.n, tc.batch, tc.p, tc.k, tc.trees, err, tc.want)
		}
	}
}
