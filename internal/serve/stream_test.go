package serve

import (
	"crypto/sha256"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pimzdtree/internal/workload"
)

// TestParseMix: a weight is a whole non-negative integer and nothing else
// (fmt.Sscanf's "%d" read "1x" as 1 and "0.5" as 0), every op is one the
// server serves, and the weights must not all be zero.
func TestParseMix(t *testing.T) {
	good, err := ParseMix(" search=70, insert=15,delete=5,knn=8 ,box=2,")
	if err != nil {
		t.Fatalf("good mix: %v", err)
	}
	want := Mix{
		ops:     []Op{OpSearch, OpInsert, OpDelete, OpKNN, OpBox},
		weights: []int{70, 15, 5, 8, 2},
		total:   100,
	}
	if !reflect.DeepEqual(good, want) || !reflect.DeepEqual(DefaultMix, want) {
		t.Fatalf("good mix parsed as %+v, DefaultMix %+v, want %+v", good, DefaultMix, want)
	}

	for _, tc := range []struct{ mix, want string }{
		{"search=1x,knn=1", `bad weight "1x" for search`},
		{"search=1,knn=0.5", `bad weight "0.5" for knn`},
		{"search=3,insert=-1", `bad weight "-1" for insert`},
		{"search=1,scan=2", `unknown op "scan"`},
		{"search=0,knn=0", "zero total weight"},
		{"search", `bad mix entry "search"`},
	} {
		if _, err := ParseMix(tc.mix); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseMix(%q) error %v, want one mentioning %q", tc.mix, err, tc.want)
		}
	}
}

// fmtStreamReq is one request's line in the stream golden.
func fmtStreamReq(r *Request) string {
	switch r.Op {
	case OpBox:
		b := r.Boxes[0]
		return fmt.Sprintf("box %v %v", b.Lo.Coords[:b.Lo.Dims], b.Hi.Coords[:b.Hi.Dims])
	case OpKNN:
		p := r.Pts[0]
		return fmt.Sprintf("knn %v k=%d", p.Coords[:p.Dims], r.K)
	default:
		p := r.Pts[0]
		return fmt.Sprintf("%s %v", r.Op, p.Coords[:p.Dims])
	}
}

// streamGolden renders the golden's cases: per stream, the SHA-256 of its
// first 10 000 request lines and the first 64 lines themselves.
func streamGolden() string {
	var out strings.Builder
	section := func(name string, next func() string) {
		h := sha256.New()
		var head strings.Builder
		for i := 0; i < 10000; i++ {
			line := next() + "\n"
			h.Write([]byte(line))
			if i < 64 {
				head.WriteString(line)
			}
		}
		fmt.Fprintf(&out, "== %s sha256=%x\n%s", name, h.Sum(nil), head.String())
	}

	// The saturate panel: the default mix at k = 8 over its uniform pool,
	// each request followed by its arrival gap at 4000 req/s.
	data := workload.Uniform(42, 10000, 3)
	sat := NewTraffic(data, workload.QueryBoxes(43, data, 256, 64), DefaultMix, 8, 0)
	for _, seed := range []int64{1, 2} {
		s := sat.Stream(seed)
		section(fmt.Sprintf("saturate seed=%d", seed), func() string {
			r := s.Next()
			return fmt.Sprintf("%s gap=%d", fmtStreamReq(r), s.Gap(4000))
		})
	}
	// pimzd-loadgen's defaults (-seed 42, -k 8) at -n 20000: workers 0
	// and 3, uniform and at -zipf 1.3.
	for _, zipf := range []float64{0, 1.3} {
		pool := workload.DatasetUniform.Generate(42, 20000, 3)
		lg := NewTraffic(pool, workload.QueryBoxes(43, pool, 256, 64), DefaultMix, 8, zipf)
		for _, w := range []int{0, 3} {
			s := lg.Stream(42 + int64(w)*1297)
			section(fmt.Sprintf("loadgen zipf=%g worker=%d", zipf, w), func() string { return fmtStreamReq(s.Next()) })
		}
	}
	return out.String()
}

// TestStreamGolden: the stream reproduces, byte for byte, the request
// sequences the saturate panel and pimzd-loadgen drew before they shared
// it (testdata/stream_golden.txt was generated from their own generators),
// at any GOMAXPROCS.
func TestStreamGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/stream_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4, 16} {
		prev := runtime.GOMAXPROCS(procs)
		got := streamGolden()
		runtime.GOMAXPROCS(prev)
		if got != string(want) {
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := range min(len(gl), len(wl)) {
				if gl[i] != wl[i] {
					t.Fatalf("GOMAXPROCS=%d: line %d is %q, golden %q", procs, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("GOMAXPROCS=%d: %d lines, golden %d", procs, len(gl), len(wl))
		}
	}
}
