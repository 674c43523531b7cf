package frontsim_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchFile is the layout of a committed BENCH_<n>.json: every result
// line of `bash cmd/perfbench/run.sh` a performance change was measured
// with, labelled by series, workload, seed and side, plus the medians and
// quartiles it quotes. Series names the revisions of the change that
// were measured, when there was more than one.
type benchFile struct {
	Title   string            `json:"title"`
	Host    string            `json:"host"`
	Command string            `json:"command"`
	Series  map[string]string `json:"series"`
	Runs    []benchRun        `json:"runs"`
	Summary []benchSummary    `json:"summary"`
}

type benchRun struct {
	Series   string      `json:"series"`
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Side     string      `json:"side"`
	Trace    int         `json:"trace"`
	Digest   string      `json:"digest"`
	Result   benchResult `json:"result"`
}

// benchResult is perfbench's result line.
type benchResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]benchMetric `json:"metrics"`
}

type benchMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type benchSummary struct {
	Series   string         `json:"series"`
	Workload string         `json:"workload"`
	Trace    int            `json:"trace"`
	Metric   string         `json:"metric"`
	Unit     string         `json:"unit"`
	Pairs    int            `json:"pairs"`
	Wins     int            `json:"wins"`
	Parent   benchQuartiles `json:"parent"`
	Change   benchQuartiles `json:"change"`
}

type benchQuartiles struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// TestBenchFilesUseDeclaredMetrics parses every committed BENCH_*.json
// strictly and requires each metric it names, in a result line or a
// summary, to be one BENCHMARK.json declares, with the declared unit.
func TestBenchFilesUseDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		units[m.Name] = m.Unit
	}
	if len(units) == 0 {
		t.Fatal("BENCHMARK.json declares no metrics")
	}

	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json files")
	}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var f benchFile
		if err := dec.Decode(&f); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(f.Runs) == 0 {
			t.Errorf("%s: no runs", name)
		}
		check := func(where, metric, unit string) {
			want, ok := units[metric]
			switch {
			case !ok:
				t.Errorf("%s: %s: metric %q is not in BENCHMARK.json", name, where, metric)
			case unit != want:
				t.Errorf("%s: %s: metric %q has unit %q, BENCHMARK.json says %q", name, where, metric, unit, want)
			}
		}
		for i, r := range f.Runs {
			if r.Side != "parent" && r.Side != "change" {
				t.Errorf("%s: run %d: side %q, want parent or change", name, i, r.Side)
			}
			if _, ok := f.Series[r.Series]; len(f.Series) > 0 && !ok {
				t.Errorf("%s: run %d: series %q is not described", name, i, r.Series)
			}
			if len(r.Result.Metrics) == 0 {
				t.Errorf("%s: run %d: no metrics", name, i)
			}
			for m, v := range r.Result.Metrics {
				check("run", m, v.Unit)
			}
		}
		for _, s := range f.Summary {
			check("summary", s.Metric, s.Unit)
		}
	}
}
