package main

import (
	"reflect"
	"strings"
	"testing"

	"pimzdtree/internal/serve"
)

// TestParseMix: a weight is a whole non-negative integer and nothing else
// (fmt.Sscanf's "%d" read "1x" as 1 and "0.5" as 0), every op is one the
// server serves, and the weights must not all be zero.
func TestParseMix(t *testing.T) {
	good, err := parseMix(" search=70, insert=15,delete=5,knn=8 ,box=2,", 4)
	if err != nil {
		t.Fatalf("good mix: %v", err)
	}
	want := loadMix{
		ops:     []serve.Op{serve.OpSearch, serve.OpInsert, serve.OpDelete, serve.OpKNN, serve.OpBox},
		weights: []int{70, 15, 5, 8, 2},
		total:   100,
		k:       4,
	}
	if !reflect.DeepEqual(good, want) {
		t.Fatalf("good mix parsed as %+v, want %+v", good, want)
	}

	for _, tc := range []struct{ mix, want string }{
		{"search=1x,knn=1", `bad weight "1x" for search`},
		{"search=1,knn=0.5", `bad weight "0.5" for knn`},
		{"search=3,insert=-1", `bad weight "-1" for insert`},
		{"search=1,scan=2", `unknown op "scan"`},
		{"search=0,knn=0", "zero total weight"},
	} {
		if _, err := parseMix(tc.mix, 8); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseMix(%q) error %v, want one mentioning %q", tc.mix, err, tc.want)
		}
	}
}
