package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"frontsim/internal/stats"
)

// Label is one metric dimension. Keys should be snake_case identifiers.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Metric is one exported data point. Labels must be sorted by key; Add
// enforces this.
type Metric struct {
	Name   string  `json:"name"`
	Help   string  `json:"help,omitempty"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// seriesKey identifies a metric series (name + label set) for sorting and
// deduplication.
func (m Metric) seriesKey() string {
	var b strings.Builder
	b.WriteString(m.Name)
	for _, l := range m.Labels {
		b.WriteByte('\x00')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// MetricSet is an ordered collection of metrics. Exporters sort it, so
// identical contents serialize identically regardless of insertion order.
type MetricSet []Metric

// Add appends m, sorting its labels by key first.
func (ms *MetricSet) Add(m Metric) {
	sort.Slice(m.Labels, func(i, j int) bool { return m.Labels[i].Key < m.Labels[j].Key })
	*ms = append(*ms, m)
}

// Sort orders the set by series key (name, then labels), breaking ties
// on value. The order is total up to byte-identical points, so a set's
// serialization depends only on its contents — collectors fed the same
// points in any order (e.g. cells finishing in a different order on a
// work-stealing pool) export identical bytes even when distinct cells
// share a series key.
func (ms MetricSet) Sort() {
	sort.Slice(ms, func(i, j int) bool {
		ki, kj := ms[i].seriesKey(), ms[j].seriesKey()
		if ki != kj {
			return ki < kj
		}
		return ms[i].Value < ms[j].Value
	})
}

// WriteJSON writes the set as canonical JSON: sorted, one metric object
// per line inside a top-level array, trailing newline. Byte-identical for
// identical contents.
func (ms MetricSet) WriteJSON(w io.Writer) error {
	sorted := append(MetricSet(nil), ms...)
	sorted.Sort()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	for i, m := range sorted {
		b, err := json.Marshal(m)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString("  "); err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// promEscape escapes a label value per the Prometheus text exposition
// format: backslash, double-quote and newline.
func promEscape(v string) string {
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// promValue formats a sample value per the text exposition format.
func promValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the set in the Prometheus text exposition
// format (version 0.0.4): sorted, with one # HELP/# TYPE header per
// metric family. All metrics are exported as gauges — they are
// end-of-run snapshots, not live counters.
func (ms MetricSet) WritePrometheus(w io.Writer) error {
	sorted := append(MetricSet(nil), ms...)
	sorted.Sort()
	bw := bufio.NewWriter(w)
	prevName := ""
	for _, m := range sorted {
		if m.Name != prevName {
			if m.Help != "" {
				if _, err := fmt.Fprintf(bw, "# HELP %s %s\n", m.Name, m.Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(bw, "# TYPE %s gauge\n", m.Name); err != nil {
				return err
			}
			prevName = m.Name
		}
		if _, err := bw.WriteString(m.Name); err != nil {
			return err
		}
		if len(m.Labels) > 0 {
			if err := bw.WriteByte('{'); err != nil {
				return err
			}
			for i, l := range m.Labels {
				if i > 0 {
					if err := bw.WriteByte(','); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(bw, `%s="%s"`, l.Key, promEscape(l.Value)); err != nil {
					return err
				}
			}
			if err := bw.WriteByte('}'); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(bw, " %s\n", promValue(m.Value)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SuiteCollector accumulates per-run MetricSets across a suite (cached
// and live jobs alike) and exports them with suite-level rollups. Safe
// for concurrent Record calls from runner workers.
type SuiteCollector struct {
	mu   sync.Mutex
	runs MetricSet
}

// Record merges one run's metrics into the collector.
func (c *SuiteCollector) Record(ms MetricSet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runs = append(c.runs, ms...)
}

// Len reports how many metric points have been recorded.
func (c *SuiteCollector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.runs)
}

// Export returns the recorded per-run metrics plus suite-level rollups:
// for every metric family with more than one point, mean/min/max/p50/p95
// across all recorded points, labeled stat=<rollup>. The result is
// sorted; repeated Export calls over the same records are identical.
func (c *SuiteCollector) Export() MetricSet {
	c.mu.Lock()
	runs := append(MetricSet(nil), c.runs...)
	c.mu.Unlock()

	out := runs
	out.Sort()

	// Group values by family name. Collect names in first-seen order from
	// the sorted set (so iteration below is deterministic without ranging
	// over the map).
	byName := make(map[string][]float64)
	help := make(map[string]string)
	var names []string
	for _, m := range out {
		if _, ok := byName[m.Name]; !ok {
			names = append(names, m.Name)
			help[m.Name] = m.Help
		}
		byName[m.Name] = append(byName[m.Name], m.Value)
	}

	rollups := []struct {
		stat string
		fn   func([]float64) float64
	}{
		{"mean", stats.Mean},
		{"min", stats.Min},
		{"max", stats.Max},
		{"p50", func(xs []float64) float64 { return stats.Percentile(xs, 50) }},
		{"p95", func(xs []float64) float64 { return stats.Percentile(xs, 95) }},
	}
	var agg MetricSet
	for _, name := range names {
		vals := byName[name]
		if len(vals) < 2 {
			continue
		}
		h := help[name]
		if h != "" {
			h += " (suite rollup)"
		}
		for _, r := range rollups {
			agg.Add(Metric{
				Name:   name + "_suite",
				Help:   h,
				Labels: []Label{{Key: "stat", Value: r.stat}},
				Value:  r.fn(vals),
			})
		}
	}
	out = append(out, agg...)
	out.Sort()
	return out
}
