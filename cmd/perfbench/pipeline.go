package main

import (
	"fmt"
	"sync"
	"time"

	"frontsim/internal/asmdb"
	"frontsim/internal/cfg"
	"frontsim/internal/core"
	"frontsim/internal/experiment"
	"frontsim/internal/isa"
	"frontsim/internal/program"
	"frontsim/internal/trace"
	"frontsim/internal/workload"
)

// simTimer attributes a simulation's host time to Sim.StepN (detailed
// simulation) and Sim.Done (which runs the functional phases of a sampled
// run). Timing every StepN call would cost more than a call, so one call in
// stepSample is timed and the total is scaled; every Done call is timed in
// sampled mode, where a single call can run a whole functional phase.
type simTimer struct {
	stepCalls, stepTimed int64
	stepNs               int64 // summed over the timed calls only
	cycles               int64
	retired              int64
	doneNs               int64
	functional           int64
}

const stepSample = 16

func (t *simTimer) add(o *simTimer) {
	t.stepCalls += o.stepCalls
	t.stepTimed += o.stepTimed
	t.stepNs += o.stepNs
	t.cycles += o.cycles
	t.retired += o.retired
	t.doneNs += o.doneNs
	t.functional += o.functional
}

// detailedMIPS is retired instructions per second of (estimated) StepN time.
func (t *simTimer) detailedMIPS() float64 {
	if t.stepTimed == 0 {
		return 0
	}
	est := float64(t.stepNs) * float64(t.stepCalls) / float64(t.stepTimed)
	return float64(t.retired) / est * 1e3
}

// functionalMIPS is functionally consumed instructions per second of Done.
func (t *simTimer) functionalMIPS() float64 {
	if t.doneNs == 0 {
		return 0
	}
	return float64(t.functional) / float64(t.doneNs) * 1e3
}

func (t *simTimer) cyclesPerStepN() float64 {
	if t.stepCalls == 0 {
		return 0
	}
	return float64(t.cycles) / float64(t.stepCalls)
}

// simulate runs one configuration over src. With a nil timer it is
// core.RunSource. With a timer it drives the canonical external loop
// (for !sim.Done() { sim.StepN() }) under the timer and then lets Run
// produce the final statistics from the finished machine, so both paths
// return the same Stats for the same input (the identity checks compare
// them byte for byte).
func simulate(c core.Config, src trace.Source, t *simTimer) (core.Stats, error) {
	if t == nil {
		return core.RunSource(c, src)
	}
	sim, err := core.New(c, src)
	if err != nil {
		return core.Stats{}, err
	}
	sampled := c.Sampling.Enabled()
	var local simTimer
	for {
		timeDone := sampled || local.stepCalls%stepSample == 0
		var t0 time.Time
		if timeDone {
			t0 = time.Now()
		}
		done := sim.Done()
		if timeDone {
			local.doneNs += time.Since(t0).Nanoseconds()
		}
		if done {
			break
		}
		if local.stepCalls%stepSample == 0 {
			t0 = time.Now()
			n, r := sim.StepN()
			local.stepNs += time.Since(t0).Nanoseconds()
			local.stepTimed++
			local.cycles += n
			local.retired += int64(r)
		} else {
			n, r := sim.StepN()
			local.cycles += n
			local.retired += int64(r)
		}
		local.stepCalls++
	}
	st, err := sim.Run()
	if err != nil {
		return core.Stats{}, err
	}
	if !sampled {
		// Done was timed on one call in stepSample; scale to all calls.
		local.doneNs = local.doneNs * (local.stepCalls + 1) / (local.stepCalls/stepSample + 1)
	} else if st.Sampling != nil {
		local.functional = st.Sampling.FunctionalInstrs
	}
	t.add(&local)
	return st, nil
}

// stageTimes collects the per-stage host time of staged matrices.
type stageTimes struct {
	mu                          sync.Mutex
	programs                    int
	build, profile, plan, apply time.Duration
	sim                         simTimer
}

func (s *stageTimes) addSim(t *simTimer) {
	s.mu.Lock()
	s.sim.add(t)
	s.mu.Unlock()
}

func (s *stageTimes) report(res *result) {
	n := float64(s.programs)
	res.metrics["workload.build_ms"] = millis(s.build) / n
	res.metrics["cfg.profile_ms"] = millis(s.profile) / n
	res.metrics["asmdb.plan_ms"] = millis(s.plan) / n
	res.metrics["asmdb.apply_ms"] = millis(s.apply) / n
	res.metrics["core.detailed_minstrs_per_s"] = s.sim.detailedMIPS()
	res.metrics["core.cycles_per_stepn"] = s.sim.cyclesPerStepN()
}

// stagedMatrix runs one workload's suite matrix stage by stage, with the
// inputs experiment.RunSuite uses: Build; the base series on the
// unmodified program (the conservative baseline's IPC seeds the profiler);
// Profile, Plan, Apply; then the four plan-derived series. With all=false
// it runs only the conservative baseline and stops after Apply, which is
// enough to time the planning layers. Cells run on up to `workers`
// goroutines. The returned map is keyed by series label.
func stagedMatrix(tr *tracer, parent int64, spec workload.Spec, p experiment.Params, all bool,
	st *stageTimes, timed bool) (map[string]core.Stats, error) {
	root := tr.begin("matrix "+spec.Name, parent, 0)
	defer tr.end(root)
	stage := func(name string, acc *time.Duration, fn func() error) error {
		id := tr.begin(name, root, 0)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		tr.end(id)
		st.mu.Lock()
		*acc += d
		st.mu.Unlock()
		if err != nil {
			return fmt.Errorf("%s %s: %w", spec.Name, name, err)
		}
		return nil
	}
	var prog *program.Program
	if err := stage("workload.build", &st.build, func() (err error) {
		prog, err = spec.Build()
		return err
	}); err != nil {
		return nil, err
	}
	st.mu.Lock()
	st.programs++
	st.mu.Unlock()

	seed := spec.Seed ^ p.ExecSeedSalt
	// A cell runs the machine of a base series over a program, with an
	// optional trigger table.
	type cell struct {
		label, series string
		prog          *program.Program
		triggers      map[isa.Addr][]isa.Addr
	}
	out := map[string]core.Stats{}
	var outMu sync.Mutex
	runCells := func(cells []cell) error {
		return parallel(len(cells), func(i int) error {
			c := cells[i]
			id := tr.begin("core.run "+c.label, root, 0)
			defer tr.end(id)
			cfgc, err := seriesConfig(c.series, p)
			if err != nil {
				return err
			}
			cfgc.Triggers = c.triggers
			var t *simTimer
			if timed {
				t = &simTimer{}
			}
			s, err := simulate(cfgc, program.NewExecutor(c.prog, seed), t)
			if err != nil {
				return fmt.Errorf("%s %s: %w", spec.Name, c.label, err)
			}
			if t != nil {
				st.addSim(t)
			}
			outMu.Lock()
			out[c.label] = s
			outMu.Unlock()
			return nil
		})
	}

	// The conservative baseline comes first: its IPC seeds the profiler.
	wave1 := []cell{{label: "cons", series: "cons", prog: prog}}
	if all {
		for _, m := range experiment.Mechanisms() {
			if m.Label != "cons" {
				wave1 = append(wave1, cell{label: m.Label, series: m.Label, prog: prog})
			}
		}
	}
	if err := runCells(wave1); err != nil {
		return nil, err
	}
	cons := out["cons"]

	var graph *cfg.Graph
	if err := stage("cfg.profile", &st.profile, func() (err error) {
		graph, err = cfg.Profile(trace.NewLimit(program.NewExecutor(prog, seed), p.ProfileInstrs),
			cfg.Options{IPC: cons.IPC()})
		return err
	}); err != nil {
		return nil, err
	}
	var plan *asmdb.Plan
	if err := stage("asmdb.plan", &st.plan, func() (err error) {
		plan, err = asmdb.Build(graph, p.AsmDB)
		return err
	}); err != nil {
		return nil, err
	}
	var rewritten *program.Program
	var triggers map[isa.Addr][]isa.Addr
	if err := stage("asmdb.apply", &st.apply, func() (err error) {
		rewritten, _, err = asmdb.Apply(prog, plan)
		triggers = asmdb.Triggers(prog, plan)
		return err
	}); err != nil {
		return nil, err
	}
	if !all {
		return out, nil
	}

	wave2 := []cell{
		{label: "asmdb+cons", series: "cons", prog: rewritten},
		{label: "asmdb+fdp24", series: "fdp24", prog: rewritten},
		{label: "asmdb-ideal+cons", series: "cons", prog: prog, triggers: triggers},
		{label: "asmdb-ideal+fdp24", series: "fdp24", prog: prog, triggers: triggers},
	}
	if err := runCells(wave2); err != nil {
		return nil, err
	}
	return out, nil
}

// parallel runs fn(0..n-1) on at most `workers` goroutines and returns the
// first error.
func parallel(n int, fn func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		next  int
		first error
	)
	for w := 0; w < workers && w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
