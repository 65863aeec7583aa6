package serve

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"time"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/morton"
)

// Mix is a parsed op-weight table: an op is drawn with probability its
// weight over the total.
type Mix struct {
	ops     []Op
	weights []int
	total   int
}

// DefaultMixSpec is the read-heavy serving mix: 70% search, 15% insert,
// 5% delete, 8% kNN, 2% box count.
const DefaultMixSpec = "search=70,insert=15,delete=5,knn=8,box=2"

// DefaultMix is DefaultMixSpec parsed; it parses (TestParseMix).
var DefaultMix, _ = ParseMix(DefaultMixSpec)

// ParseMix parses "op=weight,..." (ops as Op.String spells them; weights
// whole and non-negative, not all zero). The order of the entries is the
// order draws test them in, so it is part of the stream.
func ParseMix(s string) (Mix, error) {
	var m Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("bad mix entry %q (want op=weight)", part)
		}
		op := OpSearch
		for op <= OpBox && op.String() != strings.TrimSpace(name) {
			op++
		}
		if op > OpBox {
			return m, fmt.Errorf("unknown op %q in mix", name)
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w < 0 {
			return m, fmt.Errorf("bad weight %q for %s", val, name)
		}
		m.ops = append(m.ops, op)
		m.weights = append(m.weights, w)
		m.total += w
	}
	if m.total == 0 {
		return m, fmt.Errorf("mix has zero total weight")
	}
	return m, nil
}

// Traffic is the one seeded request source of pimzd-loadgen, the saturate
// panel and the engine's history test: read-only pools and an op mix that
// every client's Stream draws one-point requests (kNN at k) or one-box
// requests from. The same seed yields the same requests on any machine.
type Traffic struct {
	pts   []geom.Point
	boxes []geom.Box
	mix   Mix
	k     int
	zipf  float64
}

// NewTraffic builds the source. zipf > 1 skews point keys Zipfian over
// pts sorted once by Morton key, so the hottest ranks share one contiguous
// key prefix: against a sharded index the skew lands on a single shard.
// zipf <= 1 draws keys uniformly. The caller's slices are not modified.
func NewTraffic(pts []geom.Point, boxes []geom.Box, mix Mix, k int, zipf float64) *Traffic {
	if zipf > 1 {
		// Equal keys are equal points, so the order among them is moot.
		pts = slices.Clone(pts)
		slices.SortFunc(pts, func(a, b geom.Point) int { return cmp.Compare(morton.EncodePoint(a), morton.EncodePoint(b)) })
	}
	return &Traffic{pts: pts, boxes: boxes, mix: mix, k: k, zipf: zipf}
}

// Stream is one client's seeded request sequence. It is not safe for
// concurrent use; give each client its own.
type Stream struct {
	t   *Traffic
	rng *rand.Rand
	z   *rand.Zipf // nil: uniform keys
}

// Stream returns the sequence seeded by seed.
func (t *Traffic) Stream(seed int64) *Stream {
	s := &Stream{t: t, rng: rand.New(rand.NewSource(seed))}
	if t.zipf > 1 {
		s.z = rand.NewZipf(s.rng, t.zipf, 1, uint64(len(t.pts)-1))
	}
	return s
}

// Next draws the next request from the stream's one rng: its op, then its
// box or point key.
func (s *Stream) Next() *Request {
	m, i := &s.t.mix, 0
	for n := s.rng.Intn(m.total); n >= m.weights[i]; i++ {
		n -= m.weights[i]
	}
	r := NewRequest(m.ops[i])
	switch r.Op {
	case OpBox:
		r.Boxes = []geom.Box{s.t.boxes[s.rng.Intn(len(s.t.boxes))]}
		return r
	case OpKNN:
		r.K = s.t.k
	}
	if s.z != nil {
		r.Pts = []geom.Point{s.t.pts[s.z.Uint64()]}
	} else {
		r.Pts = []geom.Point{s.t.pts[s.rng.Intn(len(s.t.pts))]}
	}
	return r
}

// Gap draws the time to the next arrival of a Poisson process at rate
// requests per second (an exponential inter-arrival).
func (s *Stream) Gap(rate float64) time.Duration {
	return time.Duration(s.rng.ExpFloat64() / rate * float64(time.Second))
}
