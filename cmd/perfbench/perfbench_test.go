package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"frontsim/internal/serve"
	"frontsim/internal/workload"
)

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range tab {
			if !nameRe.MatchString(m.Name) {
				t.Errorf("metric name %q does not match %s", m.Name, nameRe)
			}
			if !unitRe.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRe)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: better %q", m.Name, m.Better)
			}
			if seen[m.Name] {
				t.Errorf("metric %s listed twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestTablesMatchBenchmarkJSON pins BENCHMARK.json to the tables the
// benchmark emits from.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from endToEnd:\n%+v\n%+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from perLayer")
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var want []string
	for _, w := range workloads {
		if !w.byHand {
			want = append(want, w.name)
		}
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, want)
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false}, {19, 0, false}, {20, 50, true}, {99, 50, true},
		{100, 90, true}, {999, 90, true}, {1000, 99, true}, {9999, 99, true}, {10000, 99.9, true},
	} {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
		if !ok {
			continue
		}
		// At least ten samples lie strictly beyond the percentile.
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		beyond := 0
		p := percentile(xs, got)
		for _, x := range xs {
			if x > p {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", c.n, got, beyond)
		}
	}
	if got := percentile([]float64{5, 1, 3, 2, 4}, 50); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
}

func TestMixSequenceSeeded(t *testing.T) {
	a, b, c := newMixSequence(7), newMixSequence(7), newMixSequence(8)
	const n = 20 * blockLen
	same, differ := true, false
	for i := 0; i < n; i++ {
		same = same && reflect.DeepEqual(a.at(i), b.at(i))
		differ = differ || !reflect.DeepEqual(a.at(i), c.at(i))
	}
	if !same {
		t.Error("the same seed gave different request sequences")
	}
	if !differ {
		t.Error("different seeds gave the same request sequence")
	}

	// Every round requests every workload once and every series equally
	// often; no cold cell repeats or is in the warm set.
	seen := map[serve.CellRequest]bool{}
	for _, w := range a.warm {
		seen[w] = true
	}
	for r := 0; r < coldRounds; r++ {
		names, series := map[string]int{}, map[string]int{}
		for _, req := range a.cold[r*workload.Count : (r+1)*workload.Count] {
			if seen[req] {
				t.Fatalf("cold cell %+v requested twice or in the warm set", req)
			}
			seen[req] = true
			names[req.Workload]++
			series[req.Series]++
		}
		if len(names) != workload.Count {
			t.Errorf("round %d covers %d workloads, want %d", r, len(names), workload.Count)
		}
		for s, k := range series {
			if k != workload.Count/len(series) {
				t.Errorf("round %d requests series %s %d times, want %d", r, s, k, workload.Count/len(series))
			}
		}
	}

	// Each block: warmGap warm hits, then its cold cell, repeated in
	// every dupEvery-th block.
	for blk := 0; blk < 20; blk++ {
		cold := 0
		for j := 0; j < blockLen; j++ {
			if a.at(blk*blockLen + j).cold {
				cold++
			}
		}
		want := 1
		if blk%dupEvery == 0 {
			want = 2
		}
		if cold != want {
			t.Errorf("block %d has %d cold requests, want %d", blk, cold, want)
		}
	}
}

// TestLoadGeneratorConnections drives the load generator against a stub
// server and checks it never opens more than two connections.
func TestLoadGeneratorConnections(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req serve.CellRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.MeasureInstrs >= 60_000 {
			time.Sleep(2 * time.Millisecond) // a cold cell takes longer
		}
		json.NewEncoder(w).Encode(serve.CellResponse{Workload: req.Workload, Series: req.Series,
			Fingerprint: fingerprint(req), Stats: json.RawMessage(`{}`)})
	}))
	defer stub.Close()

	seq := newMixSequence(3)
	const limit = 3 * blockLen
	ref := map[string][]byte{}
	for _, w := range seq.warm {
		ref[fingerprint(w)] = []byte(`{}`)
	}
	lc := newLoadClients(stub.URL)
	defer lc.close()
	lr := runLoad(seq, lc, ref, limit, time.Time{}, newTracer(), t.Logf)
	if lr.failed != 0 || lr.attempted != limit {
		t.Fatalf("%d of %d requests failed; want none of %d", lr.failed, lr.attempted, limit)
	}
	if n := lc.dials.Load(); n < 1 || n > workers {
		t.Fatalf("load generator opened %d connections, want 1..%d", n, workers)
	}
}

func fingerprint(r serve.CellRequest) string {
	return fmt.Sprintf("%s|%s|%d", r.Workload, r.Series, r.MeasureInstrs)
}

func TestCPUSharesFromProfile(t *testing.T) {
	path := t.TempDir() + "/cpu.pprof"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	spin := 0
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		spin++
	}
	pprof.StopCPUProfile()
	f.Close()
	shares, err := cpuShares(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, pkg := range profiledPackages {
		v, ok := shares["cpu."+pkg+"_share"]
		if !ok || v < 0 || v > 1 {
			t.Errorf("cpu.%s_share = %v, %v", pkg, v, ok)
		}
		sum += v
	}
	if sum > 1+1e-9 {
		t.Errorf("shares sum to %g", sum)
	}
}

func TestSimPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"frontsim/internal/ftq.(*FTQ).Tick":          "ftq",
		"frontsim/internal/cache.(*Level).Access":    "cache",
		"frontsim/internal/program.(*Executor).Next": "program",
		"runtime.mallocgc":                           "",
		"main.simulate":                              "",
	} {
		if got := simPackage(fn); got != want {
			t.Errorf("simPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs every workload briefly in both modes
// and checks the result line: every named metric, finite, with its unit,
// and every output check passing.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, mode := range []struct {
			trace string
			want  []metricDef
		}{{"0", endToEnd}, {"1", perLayer}} {
			t.Run(w.name+"/trace"+mode.trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "5", "--seconds", "1",
					"--trace", mode.trace, "-work", t.TempDir()}, &out, &errb)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(mode.want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(mode.want))
				}
				for _, m := range mode.want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: %+v, %v; want unit %s", m.Name, got, ok, m.Unit)
					}
				}
			})
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "suite", "--trace", "2"},
		{"--workload", "suite", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(append(args, "-work", t.TempDir()), &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
