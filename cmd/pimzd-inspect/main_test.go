package main

import (
	"strings"
	"testing"
)

// TestCheck: -dims and the size flags are refused before anything is
// generated. -p 0 used to panic in the tree's configuration.
func TestCheck(t *testing.T) {
	for _, tc := range []struct {
		dims, p, n int
		want       string // "" = accepted
	}{
		{3, 2048, 200000, ""},
		{2, 1, 1, ""},
		{1, 2048, 200000, "dims=1"},
		{5, 2048, 200000, "dims=5"},
		{3, 0, 100, "-p 0: want at least 1"},
		{3, -3, 100, "-p -3: want at least 1"},
		{3, 2048, 0, "-n 0: want at least 1"},
		{3, 2048, -1, "-n -1: want at least 1"},
	} {
		err := check(tc.dims, tc.p, tc.n)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("check(dims %d, p %d, n %d) = %v, want %q", tc.dims, tc.p, tc.n, err, tc.want)
		}
	}
}
