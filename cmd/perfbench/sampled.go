package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"frontsim/internal/core"
	"frontsim/internal/experiment"
	"frontsim/internal/program"
	"frontsim/internal/runner"
	"frontsim/internal/workload"
)

// The sampled-long cell: one long-tier server workload, fdp24, sampled
// with the long tier's validated geometry over sampledCoverage
// instructions. Its host time is dominated by functional warming.
const (
	sampledWorkload = "long_srv_584"
	sampledSeries   = "fdp24"
	sampledCoverage = 10_000_000
	// sampledColdShare of the run goes to simulating the cell; the rest
	// to reading it back from the run cache.
	sampledColdShare = 0.9
)

// expectedWindows is the number of measured windows the cell must report:
// one per sampling unit of the coverage budget.
const expectedWindows = sampledCoverage / 1_000_000

func sampledSpec() (workload.Spec, error) {
	specs, err := lookupSpecs([]string{sampledWorkload})
	if err != nil {
		return workload.Spec{}, err
	}
	return specs[0], nil
}

// checkSampled counts the sampled cell's own output checks.
func checkSampled(e *env, res *result, st core.Stats) {
	s := st.Sampling
	res.check(e.log, s != nil && s.TruncatedWindows == 0 && s.Windows == expectedWindows,
		"sampled cell windows %+v, want %d complete windows and none truncated", s, expectedWindows)
}

// runSampled measures the sampled cell simulated without a cache (cold:
// sampled_cell) and read back through experiment.ProbeCell from the run
// cache it was stored in (warm). Every repeat must reproduce the first
// result byte for byte.
func runSampled(e *env) (*result, error) {
	type setup struct {
		spec workload.Spec
		c    *runner.Cache
	}
	su, setupS, err := setupTimes(setupRepeats, func() (setup, error) {
		spec, err := sampledSpec()
		if err != nil {
			return setup{}, err
		}
		if _, err := spec.Build(); err != nil {
			return setup{}, err
		}
		dir, err := e.freshDir("sampled-cache-")
		if err != nil {
			return setup{}, err
		}
		c, err := runner.OpenCache(dir)
		return setup{spec, c}, err
	}, func(setup) {})
	if err != nil {
		return nil, err
	}
	p := sampledParams(e, sampledCoverage)
	pool := runner.NewPool(workers)
	defer pool.Close()
	res := newResult()
	cp := p
	cp.Cache = su.c
	var (
		cold, warm, coldWall, warmWall []float64
		ref                            core.Stats
	)
	// Each simulated cell is followed by cached reads for the rest of its
	// share of the run, so both are sampled across the whole run. Both are
	// gated on CPU time (see cost), with wall time in the report.
	start := time.Now()
	end := e.deadline(start)
	for len(cold) == 0 || time.Now().Before(end) {
		runtime.GC() // collect the previous cell's garbage outside the timing
		var cell experiment.CellResult
		took, err := measure(func() (err error) {
			cell, err = experiment.RunCellCtx(context.Background(), pool, su.spec, sampledSeries, p)
			return err
		})
		if err != nil {
			return nil, err
		}
		cold, coldWall = append(cold, millis(took.cpu)), append(coldWall, millis(took.wall))
		checkSampled(e, res, cell.Stats)
		if len(cold) == 1 {
			ref = cell.Stats
			raw, err := ref.CanonicalJSON()
			if err != nil {
				return nil, err
			}
			if err := experiment.StoreCellBytes(su.spec, sampledSeries, cp, raw); err != nil {
				return nil, err
			}
		}
		res.check(e.log, sameStats(cell.Stats, ref), "sampled cell repeat %d differs from the first", len(cold))

		warmEnd := time.Now().Add(time.Duration(float64(took.wall) * (1 - sampledColdShare) / sampledColdShare))
		for time.Now().Before(warmEnd) || time.Now().After(end) && len(warm) < tailSamples {
			var (
				st core.Stats
				ok bool
			)
			took, err := measure(func() (err error) {
				st, _, ok, err = experiment.ProbeCell(su.spec, sampledSeries, cp)
				return err
			})
			if err != nil {
				return nil, err
			}
			warm, warmWall = append(warm, millis(took.cpu)), append(warmWall, millis(took.wall))
			res.check(e.log, ok && sameStats(st, ref), "cached sampled cell differs from the simulated one")
		}
	}

	dg, err := statsDigest([]core.Stats{ref})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(e.log, "workload sampled-long: %s/%s, %d instructions covered, seed %d\n",
		sampledWorkload, sampledSeries, sampledCoverage, e.seed)
	fmt.Fprintf(e.log, "setup_s (CPU)          %.4g s\n", setupS)
	logTiming(e.log, "sampled_cell_s (wall)", "s", scale(coldWall, 1e-3))
	logTiming(e.log, "sampled_cell_s (CPU)", "s", scale(cold, 1e-3))
	logTiming(e.log, "cached_cell_ms (wall)", "ms", warmWall)
	logTiming(e.log, "cached_cell_ms (CPU)", "ms", warm)
	lo, hi := ref.Sampling.IPCInterval()
	fmt.Fprintf(e.log, "sampled IPC %.4f [%.4f, %.4f] over %d windows\n", ref.Sampling.IPCMean(), lo, hi, ref.Sampling.Windows)
	fmt.Fprintf(e.log, "canonical-stats digest %s\n", dg)
	res.metrics["setup_s"] = setupS
	res.metrics["cold_ms"] = median(cold)
	res.metrics["warm_ms"] = median(warm)
	res.metrics["warm_p90_ms"] = percentile(warm, 90)
	res.metrics["peak_rss_mb"] = peakRSSMB()
	return res, nil
}

// tracedSampled reports the per-layer metrics on the long-tier program.
// The sampled cell runs once through experiment.RunCellCtx (the reference),
// then through core.RunSource untraced and by hand traced; the traced run
// attributes host time to Sim.StepN and Sim.Done and must reproduce the
// reference.
func tracedSampled(e *env) (*result, error) {
	spec, err := sampledSpec()
	if err != nil {
		return nil, err
	}
	p := sampledParams(e, sampledCoverage)
	res := newResult()
	pool := runner.NewPool(workers)
	var cell experiment.CellResult
	took, err := measure(func() (err error) {
		cell, err = experiment.RunCellCtx(context.Background(), pool, spec, sampledSeries, p)
		return err
	})
	pool.Close()
	if err != nil {
		return nil, err
	}
	res.metrics["runner.worker_busy_share"] = busyShare(took.cpu, took.wall)
	checkSampled(e, res, cell.Stats)

	untraced, _, err := sampledByHand(nil, spec, p, nil)
	if err != nil {
		return nil, err
	}
	stop, err := startProfile(e)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var timer simTimer
	traced, st, err := sampledByHand(tr, spec, p, &timer)
	if err != nil {
		stop()
		return nil, err
	}
	res.check(e.log, sameStats(st, cell.Stats), "hand-driven sampled run differs from RunCellCtx")
	res.metrics["trace.overhead_ms"] = millis(traced - untraced)
	fmt.Fprintf(e.log, "sampled cell: untraced %.4g s, traced by hand %.4g s; %.0f%% of traced host time in Sim.Done\n",
		untraced.Seconds(), traced.Seconds(), 100*float64(timer.doneNs)/float64(traced.Nanoseconds()))

	var stages stageTimes
	if _, err := stagedMatrix(tr, 0, spec, e.params(), false, &stages, true); err != nil {
		stop()
		return nil, err
	}
	stages.report(res)
	res.metrics["core.detailed_minstrs_per_s"] = timer.detailedMIPS()
	res.metrics["core.cycles_per_stepn"] = timer.cyclesPerStepN()
	res.metrics["core.functional_minstrs_per_s"] = timer.functionalMIPS()

	if err := measureLayers(e, tr, []workload.Spec{spec}, res); err != nil {
		stop()
		return nil, err
	}
	if err := finishTraced(e, "sampled-long", tr, stop, res); err != nil {
		return nil, err
	}
	return res, nil
}

// sampledByHand builds the sampled cell's program and runs the cell with
// the external loop, under tr and t (nil: untraced), returning its wall
// time and statistics.
func sampledByHand(tr *tracer, spec workload.Spec, p experiment.Params, t *simTimer) (time.Duration, core.Stats, error) {
	c, err := seriesConfig(sampledSeries, p)
	if err != nil {
		return 0, core.Stats{}, err
	}
	t0 := time.Now()
	root := tr.begin("sampled.cell", 0, 0)
	defer tr.end(root)
	id := tr.begin("workload.build", root, 0)
	prog, err := spec.Build()
	tr.end(id)
	if err != nil {
		return 0, core.Stats{}, err
	}
	id = tr.begin("core.run "+sampledSeries, root, 0)
	st, err := simulate(c, program.NewExecutor(prog, spec.Seed^p.ExecSeedSalt), t)
	tr.end(id)
	return time.Since(t0), st, err
}
