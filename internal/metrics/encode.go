package metrics

import (
	"math"
	"net/http"
	"strconv"
	"strings"
)

// This file is the scrape side of the registry: Prometheus text and JSON
// encoders built purely from pre-serialised prefixes plus strconv appends,
// so a warm scrape performs no allocations (the buffer has grown to size
// and every byte written comes from an existing slice or a formatted
// number). The Write* forms reuse one internal buffer under the registry
// lock; the Append* forms let callers own the buffer (tests, callers with
// their own pooling).

// sampleName renders the canonical full sample identity, e.g.
// `requests_total{action="block"}`.
func sampleName(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// samplePrefix is sampleName plus the separating space, as bytes ready to
// prepend to a formatted value.
func samplePrefix(name string, labels []Label) []byte {
	return append([]byte(sampleName(name, labels)), ' ')
}

// escapeLabelValue applies the Prometheus label-value escapes.
func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

// appendHeader renders the # HELP / # TYPE preamble of a family.
func appendHeader(buf []byte, name, help string, k kind) []byte {
	if help != "" {
		buf = append(buf, "# HELP "...)
		buf = append(buf, name...)
		buf = append(buf, ' ')
		buf = append(buf, strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(help)...)
		buf = append(buf, '\n')
	}
	buf = append(buf, "# TYPE "...)
	buf = append(buf, name...)
	buf = append(buf, ' ')
	buf = append(buf, kindNames[k]...)
	buf = append(buf, '\n')
	return buf
}

// formatFloat renders a float the way the encoder will, for precomputed
// bucket bounds.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// appendJSONString appends a quoted, escaped JSON string. Metric names and
// label values are printable ASCII in practice; the escape set covers the
// characters valid label values can introduce.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			buf = append(buf, '\\', '"')
		case '\\':
			buf = append(buf, '\\', '\\')
		case '\n':
			buf = append(buf, '\\', 'n')
		case '\t':
			buf = append(buf, '\\', 't')
		default:
			if c < 0x20 {
				const hex = "0123456789abcdef"
				buf = append(buf, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			} else {
				buf = append(buf, c)
			}
		}
	}
	return append(buf, '"')
}

// appendJSONFloat appends a float as a JSON value. JSON has no literal
// for non-finite numbers — strconv's bare NaN/+Inf would make the whole
// document unparseable — so those are encoded as the quoted strings
// "NaN", "+Inf" and "-Inf" (the convention encoding/json users adopt;
// Prometheus text needs no such guard, its grammar admits them bare).
// A histogram fed a NaN observation therefore poisons its sum, visibly,
// without ever breaking the scrape endpoint.
func appendJSONFloat(buf []byte, v float64) []byte {
	switch {
	case math.IsNaN(v):
		return append(buf, `"NaN"`...)
	case math.IsInf(v, 1):
		return append(buf, `"+Inf"`...)
	case math.IsInf(v, -1):
		return append(buf, `"-Inf"`...)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

func (r *Registry) appendPrometheusLocked(buf []byte) []byte {
	for _, f := range r.families {
		buf = append(buf, f.header...)
		for _, s := range f.series {
			if f.kind == kindHistogram {
				h := s.hist
				var cum uint64
				for i := range h.buckets {
					cum += h.buckets[i].Load()
					buf = append(buf, s.bucketPrefixes[i]...)
					buf = strconv.AppendUint(buf, cum, 10)
					buf = append(buf, '\n')
				}
				buf = append(buf, s.sumPrefix...)
				buf = strconv.AppendFloat(buf, h.Sum(), 'g', -1, 64)
				buf = append(buf, '\n')
				buf = append(buf, s.countPrefix...)
				buf = strconv.AppendUint(buf, h.Count(), 10)
				buf = append(buf, '\n')
				continue
			}
			buf = append(buf, s.promPrefix...)
			buf = strconv.AppendInt(buf, s.readInt(), 10)
			buf = append(buf, '\n')
		}
	}
	return buf
}

func (r *Registry) appendJSONLocked(buf []byte) []byte {
	buf = append(buf, '{')
	first := true
	for _, f := range r.families {
		for _, s := range f.series {
			if !first {
				buf = append(buf, ',')
			}
			first = false
			buf = append(buf, s.jsonKey...)
			buf = append(buf, ':')
			if f.kind == kindHistogram {
				h := s.hist
				buf = append(buf, `{"count":`...)
				buf = strconv.AppendUint(buf, h.Count(), 10)
				buf = append(buf, `,"sum":`...)
				buf = appendJSONFloat(buf, h.Sum())
				buf = append(buf, `,"buckets":[`...)
				var cum uint64
				for i := range h.buckets {
					if i > 0 {
						buf = append(buf, ',')
					}
					cum += h.buckets[i].Load()
					buf = strconv.AppendUint(buf, cum, 10)
				}
				buf = append(buf, `]}`...)
			} else {
				buf = strconv.AppendInt(buf, s.readInt(), 10)
			}
		}
	}
	return append(buf, '}')
}

// WritePrometheus encodes into the registry's reused buffer and writes it
// to w. The buffer grows to the scrape size once and is then stable, so a
// polling scraper does not generate garbage.
// The lock is held across the Write so concurrent scrapes cannot clobber
// the shared buffer mid-flight; debug scrapers are few and the encoded
// page is small, so the serialisation is invisible in practice.
func (r *Registry) WritePrometheus(w interface{ Write([]byte) (int, error) }) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf = r.appendPrometheusLocked(r.buf[:0])
	_, err := w.Write(r.buf)
	return err
}

// WriteJSON is WritePrometheus for the JSON encoding.
func (r *Registry) WriteJSON(w interface{ Write([]byte) (int, error) }) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf = r.appendJSONLocked(r.buf[:0])
	_, err := w.Write(r.buf)
	return err
}

// Handler returns an http.Handler serving the registry: Prometheus text by
// default, JSON with ?format=json.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			_ = r.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
