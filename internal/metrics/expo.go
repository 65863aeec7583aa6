package metrics

import (
	"bytes"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition, format version 0.0.4. The writer is
// deterministic: families render in sorted name order, series in sorted
// label-value order, histogram buckets in bound order, and every float
// formats with shortest round-trip precision — so the modeled-only
// exposition of two identical runs is byte-identical.

// ContentType is the HTTP Content-Type of the exposition.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// ExpoOpts selects what the exposition writer includes.
type ExpoOpts struct {
	// ModeledOnly skips families registered with Wall=true (real-time
	// measurements), leaving only the deterministic modeled metrics CI can
	// golden-test.
	ModeledOnly bool
	// Exemplars renders OpenMetrics exemplars (`# {trace_id="..."} value`)
	// on histogram bucket lines that have one. Off by default: exemplar
	// trace IDs depend on which op happened to land in a bucket last, so
	// the golden modeled-only exposition must not carry them.
	Exemplars bool
}

// WriteTextOpts renders the registry with full option control.
//
// The whole exposition is rendered into memory first and written to w
// only after every family lock is released: w is typically an HTTP
// response, and a slow scraper must never block the recorders feeding
// the registry.
func (r *Registry) WriteTextOpts(w io.Writer, opts ExpoOpts) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var buf bytes.Buffer
	for _, f := range fams {
		if opts.ModeledOnly && f.opts.Wall {
			continue
		}
		f.writeText(&buf, opts)
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// writeText renders one family block.
func (f *family) writeText(w *bytes.Buffer, opts ExpoOpts) {
	w.WriteString("# HELP ")
	w.WriteString(f.opts.Name)
	w.WriteByte(' ')
	w.WriteString(escapeHelp(f.opts.Help))
	w.WriteByte('\n')
	w.WriteString("# TYPE ")
	w.WriteString(f.opts.Name)
	w.WriteByte(' ')
	w.WriteString(f.typ.String())
	w.WriteByte('\n')

	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := f.series[k]
		switch f.typ {
		case TypeCounter, TypeGauge:
			w.WriteString(f.opts.Name)
			f.writeSeriesLabels(w, k, "", "")
			w.WriteByte(' ')
			w.WriteString(formatValue(s.val))
			w.WriteByte('\n')
		case TypeHistogram:
			var cum uint64
			for i, b := range f.bounds {
				cum += s.buckets[i]
				w.WriteString(f.opts.Name)
				w.WriteString("_bucket")
				f.writeSeriesLabels(w, k, "le", formatValue(b))
				w.WriteByte(' ')
				w.WriteString(strconv.FormatUint(cum, 10))
				if opts.Exemplars {
					writeExemplar(w, s.exem, i)
				}
				w.WriteByte('\n')
			}
			w.WriteString(f.opts.Name)
			w.WriteString("_bucket")
			f.writeSeriesLabels(w, k, "le", "+Inf")
			w.WriteByte(' ')
			w.WriteString(strconv.FormatUint(s.count, 10))
			if opts.Exemplars {
				writeExemplar(w, s.exem, len(f.bounds))
			}
			w.WriteByte('\n')
			w.WriteString(f.opts.Name)
			w.WriteString("_sum")
			f.writeSeriesLabels(w, k, "", "")
			w.WriteByte(' ')
			w.WriteString(formatValue(s.sum))
			w.WriteByte('\n')
			w.WriteString(f.opts.Name)
			w.WriteString("_count")
			f.writeSeriesLabels(w, k, "", "")
			w.WriteByte(' ')
			w.WriteString(strconv.FormatUint(s.count, 10))
			w.WriteByte('\n')
		}
	}
}

// writeSeriesLabels renders one series' label set from its key: the
// family's single dimension, or — for multi-label families — each
// (name, value) pair in declaration order, plus an optional extra pair
// (histograms' le).
func (f *family) writeSeriesLabels(w *bytes.Buffer, key, extraName, extraValue string) {
	if f.labels == nil {
		writeLabels(w, f.opts.Label, key, extraName, extraValue)
		return
	}
	values := strings.Split(key, labelSep)
	w.WriteByte('{')
	for i, name := range f.labels {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(name)
		w.WriteString(`="`)
		if i < len(values) {
			w.WriteString(escapeLabel(values[i]))
		}
		w.WriteByte('"')
	}
	if extraName != "" {
		w.WriteByte(',')
		w.WriteString(extraName)
		w.WriteString(`="`)
		w.WriteString(escapeLabel(extraValue))
		w.WriteByte('"')
	}
	w.WriteByte('}')
}

// writeExemplar renders the OpenMetrics exemplar of bucket i, if any:
// ` # {trace_id="N"} value`.
func writeExemplar(w *bytes.Buffer, exem []exemplar, i int) {
	if i >= len(exem) || !exem[i].ok {
		return
	}
	w.WriteString(` # {trace_id="`)
	w.WriteString(escapeLabel(exem[i].trace))
	w.WriteString(`"} `)
	w.WriteString(formatValue(exem[i].val))
}

// writeLabels renders the label set: the family's own dimension (when it
// has one) plus an optional extra pair (histograms' le).
func writeLabels(w *bytes.Buffer, labelName, labelValue, extraName, extraValue string) {
	if labelName == "" && extraName == "" {
		return
	}
	w.WriteByte('{')
	if labelName != "" {
		w.WriteString(labelName)
		w.WriteString(`="`)
		w.WriteString(escapeLabel(labelValue))
		w.WriteByte('"')
		if extraName != "" {
			w.WriteByte(',')
		}
	}
	if extraName != "" {
		w.WriteString(extraName)
		w.WriteString(`="`)
		w.WriteString(escapeLabel(extraValue))
		w.WriteByte('"')
	}
	w.WriteByte('}')
}

// formatValue renders a float the shortest way that round-trips.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
