package main

import (
	"strings"
	"testing"
)

// TestCheck: -format and -dims are refused before anything is generated,
// profiled or served. -dims follows the served rule (2-4): 5 used to
// panic in the uniform generator and 1 in the tree's configuration.
func TestCheck(t *testing.T) {
	for _, tc := range []struct {
		format string
		dims   int
		want   string // "" = accepted
	}{
		{"table", 2, ""},
		{"csv", 3, ""},
		{"table", 4, ""},
		{"table", 0, "dims=0"},
		{"table", 1, "dims=1"},
		{"csv", 5, "dims=5"},
		{"csv", 300, "dims=300"},
		{"bogus", 3, `unknown format "bogus"`},
		{"", 3, `unknown format ""`},
	} {
		err := check(tc.format, tc.dims)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("check(%q, %d) = %v, want %q", tc.format, tc.dims, err, tc.want)
		}
	}
}
