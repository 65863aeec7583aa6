package main

import (
	"strings"
	"testing"
)

// TestCheck: the numeric flags are refused before the pool is generated.
// -dims follows the server's rule (2-4): 0 and 5 used to panic inside the
// generators, 300 wrapped to 44 through uint8, and 1 was accepted though
// no server serves it. -k 0 used to run the whole load and fail every knn
// request.
func TestCheck(t *testing.T) {
	for _, tc := range []struct {
		zipf                       float64
		n, workers, count, k, dims int
		want                       string // "" = accepted
	}{
		{0, 10, 1, 0, 8, 2, ""},
		{0, 10, 1, 0, 1, 3, ""},
		{1.3, 10, 4, 0, 8, 4, ""},
		{0, 10, 1, 100, 8, 3, ""},
		{0, 10, 1, 0, 8, 0, "dims=0"},
		{0, 10, 1, 0, 8, 1, "dims=1"},
		{0, 10, 1, 0, 8, 5, "dims=5"},
		{0, 10, 1, 0, 8, 300, "dims=300"},
		{0, 10, 1, 0, 8, -3, "dims=-3"},
		{1, 10, 1, 0, 8, 3, "-zipf must be > 1"},
		{0.5, 10, 1, 0, 8, 3, "-zipf must be > 1"},
		{0, 0, 1, 0, 8, 3, "-n 0"},
		{0, 10, 0, 0, 8, 3, "-workers 0"},
		{0, 10, 1, -1, 8, 3, "-count -1"},
		{0, 10, 1, 0, 0, 3, "-k 0: want at least 1"},
		{0, 10, 1, 0, -4, 3, "-k -4: want at least 1"},
		{0, 10, 1, 0, 128, 3, ""},
		{0, 10, 1, 0, 129, 3, "-k 129: want at most 128"},
	} {
		err := check(tc.zipf, tc.n, tc.workers, tc.count, tc.k, tc.dims)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("check(zipf %v, n %d, workers %d, count %d, k %d, dims %d) = %v, want %q", tc.zipf, tc.n, tc.workers, tc.count, tc.k, tc.dims, err, tc.want)
		}
	}
}
