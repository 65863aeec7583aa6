package main

import (
	"strings"
	"testing"
)

// TestCheck: -format, -dims and the size flags are refused before anything
// is generated, profiled or served. -dims follows the served rule (2-4): 5
// used to panic in the uniform generator and 1 in the tree's configuration.
// -p below 1 used to panic in the tree's configuration, and -p, -warmup or
// -batch 0 ran silently at the default size.
func TestCheck(t *testing.T) {
	for _, tc := range []struct {
		format                 string
		dims, p, warmup, batch int
		want                   string // "" = accepted
	}{
		{"table", 2, 256, 1000, 100, ""},
		{"csv", 3, 1, 1, 1, ""},
		{"table", 4, 256, 1000, 100, ""},
		{"table", 0, 256, 1000, 100, "dims=0"},
		{"table", 1, 256, 1000, 100, "dims=1"},
		{"csv", 5, 256, 1000, 100, "dims=5"},
		{"csv", 300, 256, 1000, 100, "dims=300"},
		{"bogus", 3, 256, 1000, 100, `unknown format "bogus"`},
		{"", 3, 256, 1000, 100, `unknown format ""`},
		{"table", 3, 0, 1000, 100, "-p 0: want at least 1"},
		{"table", 3, -3, 1000, 100, "-p -3: want at least 1"},
		{"table", 3, 256, 0, 100, "-warmup 0: want at least 1"},
		{"table", 3, 256, 1000, 0, "-batch 0: want at least 1"},
		{"table", 3, 256, -1, -1, "-batch -1: want at least 1"},
	} {
		err := check(tc.format, tc.dims, tc.p, tc.warmup, tc.batch)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("check(%q, dims %d, p %d, warmup %d, batch %d) = %v, want %q",
				tc.format, tc.dims, tc.p, tc.warmup, tc.batch, err, tc.want)
		}
	}
}
