package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"frontsim/internal/core"
	"frontsim/internal/experiment"
	"frontsim/internal/runner"
	"frontsim/internal/workload"
)

// suiteNames span L1-I MPKI 0.2, 3.5 and 18.9 at the default budgets, so
// predictor- and backend-bound cells and cache- and stall-bound cells are
// all in the pass.
var suiteNames = []string{"secret_crypto52", "secret_int_44", "secret_srv12"}

// coldShare is the part of a suite run spent on cold passes; the rest
// goes to warm passes, which need tailSamples samples for their p90.
const coldShare = 0.6

func lookupSpecs(names []string) ([]workload.Spec, error) {
	specs := make([]workload.Spec, len(names))
	for i, n := range names {
		s, ok := workload.Lookup(n)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
		specs[i] = s
	}
	return specs, nil
}

// params are the parameters users run the suite with, on the benchmark's
// two workers, with the run's executor salt.
func (e *env) params() experiment.Params {
	p := experiment.DefaultParams()
	p.Parallelism = workers
	p.ExecSeedSalt = e.salt
	return p
}

// matrixCells lists a matrix's cells in series-label order.
func matrixCells(m *experiment.Matrix) map[string]core.Stats {
	return map[string]core.Stats{
		"cons": m.Cons, "fdp24": m.FDP, "eip+fdp24": m.EIPFDP,
		"asmdb+cons": m.AsmdbCons, "asmdb-ideal+cons": m.AsmdbConsIdeal,
		"asmdb+fdp24": m.AsmdbFDP, "asmdb-ideal+fdp24": m.AsmdbFDPIdeal,
		"mana+fdp24": m.MANAFDP, "shadow+fdp24": m.ShadowFDP, "itlb+fdp24": m.ITLBFDP,
	}
}

// suiteDigest hashes every cell of every matrix in a fixed order.
func suiteDigest(ms []*experiment.Matrix) (string, error) {
	var sts []core.Stats
	for _, m := range ms {
		cells := matrixCells(m)
		for _, label := range experiment.SeriesLabels() {
			st, ok := cells[label]
			if !ok {
				return "", fmt.Errorf("series %q has no matrix field", label)
			}
			sts = append(sts, st)
		}
	}
	return statsDigest(sts)
}

// suiteSetup is the suite's set-up: the specs resolved and built once,
// which also proves they build.
func suiteSetup() ([]workload.Spec, error) {
	specs, err := lookupSpecs(suiteNames)
	if err != nil {
		return nil, err
	}
	for _, s := range specs {
		if _, err := s.Build(); err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
	}
	return specs, nil
}

// suitePass runs one RunSuite pass against the cache in dir.
func suitePass(specs []workload.Spec, p experiment.Params, dir string) ([]*experiment.Matrix, cost, error) {
	c, err := runner.OpenCache(dir)
	if err != nil {
		return nil, cost{}, err
	}
	p.Cache = c
	// Collect earlier passes' garbage now, not inside this pass.
	runtime.GC()
	var ms []*experiment.Matrix
	took, err := measure(func() (err error) {
		ms, err = experiment.RunSuite(specs, p, nil)
		return err
	})
	return ms, took, err
}

// runSuite alternates a cold pass (into a fresh run cache) with warm
// passes over that cache until the time is up, so both kinds of pass are
// sampled across the whole run and a burst of host noise cannot land on
// one kind only. Cold: suite_cold; warm: suite_warm, both gated on CPU
// time (see cost) with wall time in the report. The seed changes nothing:
// the run is what users run, and both the executor salt and the order the
// programs are submitted in change the work (see seedSalt). Every pass
// must reproduce the first cold pass's statistics byte for byte.
func runSuite(e *env) (*result, error) {
	specs, setup, err := setupTimes(setupRepeats, suiteSetup, func([]workload.Spec) {})
	if err != nil {
		return nil, err
	}
	p := e.params()
	res := newResult()
	var (
		cold, warm, coldWall, warmWall []float64
		ref                            string
		refMs                          []*experiment.Matrix
	)
	pass := func(dir, kind string) (cost, error) {
		ms, took, err := suitePass(specs, p, dir)
		if err != nil {
			return cost{}, err
		}
		dg, err := suiteDigest(ms)
		if err != nil {
			return cost{}, err
		}
		if ref == "" {
			ref, refMs = dg, ms
		}
		res.check(e.log, dg == ref, "%s suite pass digest %s, first cold pass %s", kind, dg, ref)
		return took, nil
	}
	start := time.Now()
	end := e.deadline(start)
	// A cycle starts only while at least half of one fits before the end,
	// so a run overruns its time by at most half a cycle.
	var cycle time.Duration
	for len(cold) == 0 || time.Now().Add(cycle/2).Before(end) {
		dir, err := e.freshDir("suite-cache-")
		if err != nil {
			return nil, err
		}
		took, err := pass(dir, "cold")
		if err != nil {
			return nil, err
		}
		cold, coldWall = append(cold, millis(took.cpu)), append(coldWall, millis(took.wall))
		cycle = time.Duration(float64(took.wall) / coldShare)
		warmEnd := time.Now().Add(time.Duration(float64(took.wall) * (1 - coldShare) / coldShare))
		for time.Now().Before(warmEnd) || time.Now().After(end) && len(warm) < tailSamples {
			took, err := pass(dir, "warm")
			if err != nil {
				return nil, err
			}
			warm, warmWall = append(warm, millis(took.cpu)), append(warmWall, millis(took.wall))
		}
		os.RemoveAll(dir)
	}

	fmt.Fprintf(e.log, "workload suite: %v, seed %d, %d workers\n", suiteNames, e.seed, workers)
	fmt.Fprintf(e.log, "setup_s (CPU)          %.4g s\n", setup)
	logTiming(e.log, "suite_cold_s (wall)", "s", scale(coldWall, 1e-3))
	logTiming(e.log, "suite_cold_s (CPU)", "s", scale(cold, 1e-3))
	logTiming(e.log, "suite_warm_ms (wall)", "ms", warmWall)
	logTiming(e.log, "suite_warm_ms (CPU)", "ms", warm)
	fmt.Fprintf(e.log, "canonical-stats digest %s\n", ref)
	logPaperShape(e, refMs)
	res.metrics["setup_s"] = setup
	res.metrics["cold_ms"] = median(cold)
	res.metrics["warm_ms"] = median(warm)
	res.metrics["warm_p90_ms"] = percentile(warm, 90)
	res.metrics["peak_rss_mb"] = peakRSSMB()
	return res, nil
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// logPaperShape prints the suite's geomean speedups over the conservative
// baseline beside the paper's. Informational only: three workloads, and
// the model is validated in shape, not in absolute numbers.
func logPaperShape(e *env, ms []*experiment.Matrix) {
	rows := []struct {
		label string
		paper string
		pick  func(m *experiment.Matrix) core.Stats
	}{
		{"asmdb+cons", "+20%", func(m *experiment.Matrix) core.Stats { return m.AsmdbCons }},
		{"fdp24", "+41%", func(m *experiment.Matrix) core.Stats { return m.FDP }},
		{"asmdb+fdp24", "~+41%", func(m *experiment.Matrix) core.Stats { return m.AsmdbFDP }},
		{"ideal+fdp24", "+49%", func(m *experiment.Matrix) core.Stats { return m.AsmdbFDPIdeal }},
	}
	fmt.Fprintf(e.log, "model shape vs paper (geomean speedup over cons; %d-workload subset, shape-validated model, ungated):\n", len(ms))
	for _, r := range rows {
		logSum := 0.0
		for _, m := range ms {
			logSum += math.Log(m.Speedup(r.pick(m)))
		}
		g := math.Exp(logSum / float64(len(ms)))
		fmt.Fprintf(e.log, "  %-12s model %+5.1f%%  paper %s\n", r.label, (g-1)*100, r.paper)
	}
}

// tracedSuite reports the per-layer metrics on the suite's programs. It
// runs one untraced cold pass (the reference for the identity check and
// for runner.worker_busy_share), the staged pipeline untraced and then
// traced (their difference is the tracing overhead; the traced one must
// match the cold pass cell for cell), and the layer microbenchmarks.
func tracedSuite(e *env) (*result, error) {
	specs, err := suiteSetup()
	if err != nil {
		return nil, err
	}
	p := e.params()
	res := newResult()
	dir, err := e.freshDir("suite-cache-")
	if err != nil {
		return nil, err
	}
	ms, took, err := suitePass(specs, p, dir)
	if err != nil {
		return nil, err
	}
	res.metrics["runner.worker_busy_share"] = busyShare(took.cpu, took.wall)

	untraced, err := stagedSuite(nil, specs, p, &stageTimes{}, false)
	if err != nil {
		return nil, err
	}
	stop, err := startProfile(e)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var st stageTimes
	traced, err := stagedSuite(tr, specs, p, &st, true)
	if err != nil {
		stop()
		return nil, err
	}
	for i, spec := range specs {
		want := matrixCells(ms[i])
		for _, label := range experiment.SeriesLabels() {
			res.check(e.log, sameStats(traced.cells[i][label], want[label]),
				"staged %s %s differs from the cold suite pass", spec.Name, label)
		}
	}
	res.metrics["trace.overhead_ms"] = millis(traced.wall - untraced.wall)
	st.report(res)
	fmt.Fprintf(e.log, "staged pipeline: untraced %.4g s, traced %.4g s\n", untraced.wall.Seconds(), traced.wall.Seconds())

	if err := measureLayers(e, tr, specs, res); err != nil {
		stop()
		return nil, err
	}
	if err := finishTraced(e, "suite", tr, stop, res); err != nil {
		return nil, err
	}
	return res, nil
}

// stagedRun is one staged pass over the suite's programs.
type stagedRun struct {
	cells []map[string]core.Stats // per program, by series label
	wall  time.Duration
}

// stagedSuite builds every matrix of the suite stage by stage, one program
// after another, under tr (nil: untraced) and into st.
func stagedSuite(tr *tracer, specs []workload.Spec, p experiment.Params, st *stageTimes, timed bool) (stagedRun, error) {
	var run stagedRun
	root := tr.begin("suite.staged", 0, 0)
	t0 := time.Now()
	for _, spec := range specs {
		cells, err := stagedMatrix(tr, root, spec, p, true, st, timed)
		if err != nil {
			return run, err
		}
		run.cells = append(run.cells, cells)
	}
	run.wall = time.Since(t0)
	tr.end(root)
	return run, nil
}

// sameStats reports whether two snapshots are byte-identical in canonical
// form.
func sameStats(a, b core.Stats) bool {
	x, err1 := a.CanonicalJSON()
	y, err2 := b.CanonicalJSON()
	return err1 == nil && err2 == nil && string(x) == string(y)
}

// startProfile starts the CPU profile behind the cpu.<pkg>_share metrics.
// The returned stop ends it and leaves the profile in the run directory.
func startProfile(e *env) (func() string, error) {
	path := e.dir + "/cpu.pprof"
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() string {
		pprof.StopCPUProfile()
		f.Close()
		return path
	}, nil
}

// finishTraced stops the profile, turns it into cpu.<pkg>_share metrics
// and writes the spans out.
func finishTraced(e *env, name string, tr *tracer, stop func() string, res *result) error {
	shares, err := cpuShares(stop())
	if err != nil {
		return err
	}
	for k, v := range shares {
		res.metrics[k] = v
	}
	path, err := e.tracePath(name)
	if err != nil {
		return err
	}
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(e.log, "spans written to %s; self time by span (ms):\n", path)
	self := tr.selfTimes()
	for _, k := range sortedKeys(self) {
		fmt.Fprintf(e.log, "  %-32s %10.2f\n", k, self[k])
	}
	return nil
}
