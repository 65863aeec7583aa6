package workload

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/morton"
)

// writePoints encodes pts in the binary point format ReadPoints parses:
// magic, dims byte, little-endian uint64 count, packed uint32 coordinates.
func writePoints(buf *bytes.Buffer, pts []geom.Point) {
	buf.WriteString(ptsMagic)
	buf.WriteByte(pts[0].Dims)
	buf.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(pts))))
	for _, p := range pts {
		for d := uint8(0); d < p.Dims; d++ {
			buf.Write(binary.LittleEndian.AppendUint32(nil, p.Coords[d]))
		}
	}
}

func TestBinaryPointsRoundTrip(t *testing.T) {
	pts := Uniform(1, 2000, 3)
	var buf bytes.Buffer
	writePoints(&buf, pts)
	got, err := ReadPoints(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("count %d vs %d", len(got), len(pts))
	}
	for i := range pts {
		if !got[i].Equal(pts[i]) {
			t.Fatalf("point %d differs", i)
		}
	}
}

func TestBinaryPointsErrors(t *testing.T) {
	if _, err := ReadPoints(strings.NewReader("garbage data here")); err == nil {
		t.Fatal("expected magic error")
	}
	// Truncated stream.
	pts := Uniform(2, 10, 2)
	var buf bytes.Buffer
	writePoints(&buf, pts)
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadPoints(bytes.NewReader(trunc)); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestReadCSV(t *testing.T) {
	csv := `# lon, lat
1.5, 2.5
0.0, 0.0
3.0, 5.0

2.0;1.0
`
	pts, err := ReadCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("parsed %d points", len(pts))
	}
	// Quantization: (0,0) is the min corner, (3,5) the max.
	if pts[1].Coords[0] != 0 || pts[1].Coords[1] != 0 {
		t.Fatalf("min corner = %v", pts[1])
	}
	m := morton.MaxCoord(2)
	if pts[2].Coords[0] != m || pts[2].Coords[1] != m {
		t.Fatalf("max corner = %v", pts[2])
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("empty CSV should error")
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n3\n")); err == nil {
		t.Fatal("ragged CSV should error")
	}
	if _, err := ReadCSV(strings.NewReader("1,x\n")); err == nil {
		t.Fatal("non-numeric CSV should error")
	}
	if _, err := ReadCSV(strings.NewReader("1\n2\n")); err == nil {
		t.Fatal("1D CSV should error")
	}
}

func TestQuantizeFloats(t *testing.T) {
	raw := [][]float64{{0, 10}, {5, 10}, {10, 10}}
	pts := QuantizeFloats(raw, 2)
	m := morton.MaxCoord(2)
	if pts[0].Coords[0] != 0 || pts[2].Coords[0] != m {
		t.Fatalf("x quantization wrong: %v %v", pts[0], pts[2])
	}
	// Degenerate dimension (all equal) maps to 0.
	for _, p := range pts {
		if p.Coords[1] != 0 {
			t.Fatalf("degenerate dim should be 0: %v", p)
		}
	}
	if QuantizeFloats(nil, 2) != nil {
		t.Fatal("nil input")
	}
}

// FuzzReadCSV ensures the parser never panics and only produces valid
// grid coordinates, whatever the input.
func FuzzReadCSV(f *testing.F) {
	f.Add("1,2\n3,4\n")
	f.Add("# comment\n1.5; 2.5\n")
	f.Add("")
	f.Add("1,2,3,4,5,6,7,8,9\n")
	f.Add("nan,inf\n")
	f.Fuzz(func(t *testing.T, input string) {
		pts, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return // rejecting bad input is fine; panicking is not
		}
		if len(pts) == 0 {
			t.Fatal("nil error but no points")
		}
		dims := pts[0].Dims
		maxC := morton.MaxCoord(int(dims))
		for _, p := range pts {
			if p.Dims != dims {
				t.Fatal("mixed dims in output")
			}
			for d := uint8(0); d < dims; d++ {
				if p.Coords[d] > maxC {
					t.Fatalf("coordinate %d exceeds grid", p.Coords[d])
				}
			}
		}
	})
}

func TestReadCSVRejectsNonFinite(t *testing.T) {
	for _, bad := range []string{"nan,1\n", "1,inf\n", "-inf,2\n"} {
		if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
			t.Fatalf("input %q should be rejected", bad)
		}
	}
}
