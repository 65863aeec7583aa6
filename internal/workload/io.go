package workload

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/morton"
)

// Point-file input, so the harness can run on real datasets (an actual
// OpenStreetMap extract, an astronomy catalogue) instead of the synthetic
// stand-ins. Two formats:
//
//   - binary: "PTS1\n", dims byte, uint64 count, packed uint32 coords
//     (little endian) — compact and fast;
//   - CSV: one point per line, comma-separated coordinates; float values
//     are quantized onto the Morton grid with QuantizeFloats.

const ptsMagic = "PTS1\n"

// ReadPoints reads the binary point format.
func ReadPoints(r io.Reader) ([]geom.Point, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(ptsMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("workload: reading magic: %w", err)
	}
	if string(magic) != ptsMagic {
		return nil, fmt.Errorf("workload: bad magic %q", magic)
	}
	dims, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if dims < 2 || dims > geom.MaxDims {
		return nil, fmt.Errorf("workload: invalid dimensionality %d", dims)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint64(hdr[:])
	if n > 1<<33 {
		return nil, fmt.Errorf("workload: implausible count %d", n)
	}
	pts := make([]geom.Point, n)
	var buf [4]byte
	for i := range pts {
		p := geom.Point{Dims: dims}
		for d := uint8(0); d < dims; d++ {
			if _, err := io.ReadFull(br, buf[:]); err != nil {
				return nil, fmt.Errorf("workload: point %d: %w", i, err)
			}
			p.Coords[d] = binary.LittleEndian.Uint32(buf[:])
		}
		pts[i] = p
	}
	return pts, nil
}

// ReadCSV parses one point per line (comma- or whitespace-separated float
// coordinates, '#' comments allowed) and quantizes onto the Morton grid
// for the detected dimensionality.
func ReadCSV(r io.Reader) ([]geom.Point, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var raw [][]float64
	dims := 0
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.FieldsFunc(text, func(r rune) bool {
			return r == ',' || r == ' ' || r == '\t' || r == ';'
		})
		coords := make([]float64, 0, len(fields))
		for _, f := range fields {
			f = strings.TrimSpace(f)
			if f == "" {
				continue
			}
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("workload: line %d: %w", line, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("workload: line %d: non-finite coordinate %q", line, f)
			}
			coords = append(coords, v)
		}
		if len(coords) == 0 {
			continue
		}
		if dims == 0 {
			dims = len(coords)
			if dims < 2 || dims > geom.MaxDims {
				return nil, fmt.Errorf("workload: line %d: unsupported dimensionality %d", line, dims)
			}
		}
		if len(coords) != dims {
			return nil, fmt.Errorf("workload: line %d: %d coords, want %d", line, len(coords), dims)
		}
		raw = append(raw, coords)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("workload: empty CSV")
	}
	return QuantizeFloats(raw, uint8(dims)), nil
}

// QuantizeFloats maps floating-point coordinates onto the integer Morton
// grid for the given dimensionality, scaling each dimension independently
// over its observed min..max range (the standard preprocessing for
// z-order indexes over real-valued data).
func QuantizeFloats(raw [][]float64, dims uint8) []geom.Point {
	if len(raw) == 0 {
		return nil
	}
	maxC := float64(morton.MaxCoord(int(dims)))
	lo := make([]float64, dims)
	hi := make([]float64, dims)
	for d := uint8(0); d < dims; d++ {
		lo[d], hi[d] = raw[0][d], raw[0][d]
	}
	for _, c := range raw {
		for d := uint8(0); d < dims; d++ {
			if c[d] < lo[d] {
				lo[d] = c[d]
			}
			if c[d] > hi[d] {
				hi[d] = c[d]
			}
		}
	}
	pts := make([]geom.Point, len(raw))
	for i, c := range raw {
		p := geom.Point{Dims: dims}
		for d := uint8(0); d < dims; d++ {
			span := hi[d] - lo[d]
			if span <= 0 {
				p.Coords[d] = 0
				continue
			}
			v := (c[d] - lo[d]) / span * maxC
			p.Coords[d] = clampCoord(v, morton.MaxCoord(int(dims)))
		}
		pts[i] = p
	}
	return pts
}
