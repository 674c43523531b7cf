package experiment

import (
	"bytes"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"frontsim/internal/obs"
	"frontsim/internal/runner"
	"frontsim/internal/workload"
)

// TestObsUniformAcrossCacheStates pins the exporter's uniformity contract:
// a fully-cached suite pass reports exactly the same metric points as the
// cold pass that populated the cache — cache hits replay their decoded
// snapshots through the same MetricSet path — while per-run observer
// construction (ObsRun) is only ever invoked for live simulations.
func TestObsUniformAcrossCacheStates(t *testing.T) {
	dir := t.TempDir()
	spec, ok := workload.Lookup("public_srv_60")
	if !ok {
		t.Fatal("workload missing")
	}

	var liveSinks, warmSinks atomic.Int64
	runPass := func(c *runner.Cache, counter *atomic.Int64) *obs.SuiteCollector {
		p := tinyParams()
		p.Cache = c
		col := &obs.SuiteCollector{}
		p.Obs = col
		p.ObsRun = func(workload, series string) obs.Sink {
			counter.Add(1)
			return nil
		}
		if _, err := RunMatrix(spec, 1, p); err != nil {
			t.Fatal(err)
		}
		return col
	}

	cold, err := runner.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	colA := runPass(cold, &liveSinks)
	if liveSinks.Load() == 0 {
		t.Fatal("cold pass built no per-run observers")
	}
	// One MetricSet of points per series cell.
	if colA.Len() == 0 || colA.Len()%int(numSeries) != 0 {
		t.Fatalf("cold pass recorded %d metric points, want a multiple of %d", colA.Len(), numSeries)
	}

	warm, err := runner.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	colB := runPass(warm, &warmSinks)
	if m := warm.Metrics(); m.Misses != 0 {
		t.Fatalf("warm pass was not pure cache hits: %+v", m)
	}
	if n := warmSinks.Load(); n != 0 {
		t.Fatalf("cached cells invoked ObsRun %d times", n)
	}
	if colB.Len() != colA.Len() {
		t.Fatalf("warm pass recorded %d runs, cold %d", colB.Len(), colA.Len())
	}

	var a, b bytes.Buffer
	if err := colA.Export().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := colB.Export().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("suite metrics differ cached vs live:\n cold %s\n warm %s", a.Bytes(), b.Bytes())
	}
}

// TestAblationMechanismObsLabels pins that a sweep observes each cell
// under its row's label: the five FDP mechanisms share Config.Name
// "fdp24", and sinks named after it would truncate each other's files and
// export metric points with identical labels.
func TestAblationMechanismObsLabels(t *testing.T) {
	spec := workload.All()[0]
	p := cellParams(t, t.TempDir())
	var mu sync.Mutex
	seen := map[string]int{}
	p.ObsRun = func(wl, series string) obs.Sink {
		mu.Lock()
		defer mu.Unlock()
		seen[wl+"/"+series]++
		return nil
	}
	if _, err := AblationMechanism([]workload.Spec{spec}, p); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for k, n := range seen {
		if n != 1 {
			t.Errorf("sink %s opened %d times", k, n)
		}
		got = append(got, k)
	}
	for _, m := range Mechanisms() {
		want = append(want, spec.Name+"/"+m.Label)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("observed (workload, series) pairs %q, want %q", got, want)
	}
}
