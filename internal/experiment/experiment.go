// Package experiment defines one runnable experiment per table and figure
// in the paper's evaluation, plus the ablations called out in DESIGN.md.
// The unit of work is the Matrix: for one workload, the six configurations
// Figure 1 compares (conservative baseline, AsmDB and ideal AsmDB on the
// conservative front-end, the industry-standard 24-entry FDP, and AsmDB /
// ideal AsmDB on top of it), plus the characterization-matrix mechanisms
// layered on FDP: the EIP and MANA hardware prefetchers, shadow-branch
// decoding, and the I-TLB model. Every figure is then a projection of the
// suite's matrices.
//
// Execution is decomposed into per-(workload, configuration) jobs on the
// internal/runner work-stealing pool — so one slow workload's ten
// configurations spread across idle workers instead of serializing — and
// every simulation run is keyed into the runner's content-addressed cache
// by (config fingerprint, workload spec, seed, budgets, plan provenance),
// making warm re-runs near-instant. The cache is only sound because runs
// are bit-deterministic; TestDeterminismAcrossParallelism guards that.
package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"frontsim/internal/asmdb"
	"frontsim/internal/bpu"
	"frontsim/internal/cache"
	"frontsim/internal/cfg"
	"frontsim/internal/core"
	"frontsim/internal/hwpf"
	"frontsim/internal/isa"
	"frontsim/internal/obs"
	"frontsim/internal/program"
	"frontsim/internal/runner"
	"frontsim/internal/trace"
	"frontsim/internal/workload"
)

// Params controls simulation scale. The paper simulates 100M instructions
// per trace; the defaults here are scaled down for laptop-class runtimes
// and can be raised via cmd/experiments flags (see EXPERIMENTS.md).
type Params struct {
	// WarmupInstrs run before measurement begins.
	WarmupInstrs int64
	// MeasureInstrs are measured program instructions per run.
	MeasureInstrs int64
	// ProfileInstrs is the AsmDB profiling stream length.
	ProfileInstrs int64
	// Parallelism bounds pool workers (<=0: GOMAXPROCS). Results are
	// bit-identical at every setting; a goroutine joining a job group also
	// executes that group's queued jobs, so effective concurrency can
	// briefly exceed this bound by the number of concurrent waiters.
	Parallelism int
	// AsmDB tunes the software prefetcher.
	AsmDB asmdb.Options
	// ExecSeedSalt separates executor randomness from structural seeds.
	ExecSeedSalt uint64
	// Cache, when non-nil, is consulted before and filled after every
	// simulation run. Never part of a cache key itself.
	Cache *runner.Cache `json:"-"`
	// Audit turns on per-cycle invariant checking (core.Config.Audit) for
	// every simulated cell. Observational only: fingerprints, cache keys
	// and results are identical with it on or off, so it is excluded from
	// serialized keys. Cached cells are not re-simulated — run against a
	// cold cache to audit the whole matrix.
	Audit bool `json:"-"`
	// Obs, when non-nil, collects one MetricSet per completed simulation
	// cell — cached and live alike, so a warm suite reports the same
	// metrics as a cold one. Observational only; never part of cache keys.
	Obs *obs.SuiteCollector `json:"-"`
	// ObsRun, when non-nil, supplies a per-run observability sink (cycle
	// samples + event trace) for each *live* simulation, keyed by workload
	// and series label. Sinks that implement io.Closer are closed when the
	// run finishes. Cached cells never invoke it — there is no simulation
	// to observe. Observational only; never part of cache keys.
	ObsRun func(workload, series string) obs.Sink `json:"-"`
	// FastForward enables the event-driven cycle-skipping fast path
	// (core.Config.FastForward) for every simulated cell. Results are
	// byte-identical with it on or off (TestFastForwardEquivalence), so it
	// is excluded from fingerprints and cache keys: fast-forwarded and
	// cycle-stepped runs share cache entries. DefaultParams turns it on.
	FastForward bool `json:"-"`
	// Sampling selects SMARTS-style sampled simulation
	// (core.Config.Sampling) for every simulated cell. Unlike Audit and
	// FastForward it is *semantic*: the sampling geometry is part
	// of every config fingerprint, so sampled and exact cells never share
	// run-cache entries, and sampled Stats carry the per-window CPI
	// estimate (core.SamplingStats) the tables render as ± confidence
	// half-widths. The zero value keeps every cell exact. MaxInstrs still
	// bounds the covered stream region, so a sampled suite traverses the
	// same instructions as its exact counterpart. Extension pipelines
	// (X1/X2) always run exact: their tuning loops compare absolute IPC
	// across rewritten programs, where sampling noise would feed back into
	// plan selection.
	Sampling core.SamplingConfig
}

// obsRecord exports one cell's metrics to the suite collector.
func (p Params) obsRecord(st *core.Stats, wl, series string) {
	if p.Obs == nil {
		return
	}
	p.Obs.Record(st.MetricSet(
		obs.Label{Key: "workload", Value: wl},
		obs.Label{Key: "series", Value: series},
	))
}

// DefaultParams returns the scaled-down defaults.
func DefaultParams() Params {
	return Params{
		WarmupInstrs:  500_000,
		MeasureInstrs: 1_500_000,
		ProfileInstrs: 2_000_000,
		AsmDB:         asmdb.DefaultOptions(),
		ExecSeedSalt:  0x5eed5eed5eed5eed,
		FastForward:   true,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.WarmupInstrs < 0 || p.MeasureInstrs <= 0 || p.ProfileInstrs <= 0 {
		return fmt.Errorf("experiment: instruction budgets %+v", p)
	}
	if err := p.Sampling.Validate(); err != nil {
		return err
	}
	return p.AsmDB.Validate()
}

// Matrix holds every per-workload measurement the figures project.
type Matrix struct {
	Spec  workload.Spec
	Index int // 1-based position in the suite (figure x-axis)

	Plan        *asmdb.Plan
	StaticBloat float64

	// The six Figure-1 series, the EIP hardware comparator, and the
	// characterization-matrix mechanisms (MANA, shadow-branch decoding,
	// I-TLB), all layered on the industry-standard FDP front-end.
	Cons           core.Stats // conservative 2-entry FTQ baseline
	AsmdbCons      core.Stats // AsmDB on conservative
	AsmdbConsIdeal core.Stats // AsmDB, no insertion overhead, conservative
	FDP            core.Stats // industry-standard 24-entry FTQ
	AsmdbFDP       core.Stats // AsmDB on FDP
	AsmdbFDPIdeal  core.Stats // AsmDB, no insertion overhead, on FDP
	EIPFDP         core.Stats // EIP hardware prefetcher on FDP
	MANAFDP        core.Stats // MANA spatial-region prefetcher on FDP
	ShadowFDP      core.Stats // shadow-branch decoding on FDP
	ITLBFDP        core.Stats // I-TLB model (prefetch dropping) on FDP
}

// Speedup returns st's IPC normalized to the conservative baseline.
func (m *Matrix) Speedup(st core.Stats) float64 {
	// IPC is zero exactly when nothing was measured; test the integer
	// counters it is derived from rather than the float.
	if m.Cons.Cycles == 0 || m.Cons.Instructions == 0 {
		return 0
	}
	return st.IPC() / m.Cons.IPC()
}

// series is one row of the per-workload series table: a machine paired
// with a program, and the Matrix field its stats land in. The table below
// is the only place a series is spelled out; run-cache keys, the planner
// (runRows), the single-cell surface and Mechanisms() all derive from it.
type series struct {
	// label names the series in cache-series labels, progress lines,
	// observability labels and the serving layer's requests.
	label string
	// machine builds the front-end the series runs on.
	machine machine
	// program is the instruction stream: progBase, progAsmdb or
	// progTriggers.
	program string
	// slot is the series' field of a Matrix.
	slot func(*Matrix) *core.Stats
}

// seriesTable is every per-workload series, in suite order: the order of
// SeriesLabels, of the run-cache probes and of the suite's progress lines.
// A new machine or program variant arrives as one more row.
var seriesTable = [...]series{
	{"cons", conservative, progBase, func(m *Matrix) *core.Stats { return &m.Cons }},
	{"fdp24", fdp24, progBase, func(m *Matrix) *core.Stats { return &m.FDP }},
	{"eip+fdp24", onFDP24(func(c *core.Config) (err error) {
		c.Frontend.Prefetcher, err = hwpf.NewEIP(hwpf.DefaultEIPConfig())
		return err
	}), progBase, func(m *Matrix) *core.Stats { return &m.EIPFDP }},
	{"asmdb+cons", conservative, progAsmdb, func(m *Matrix) *core.Stats { return &m.AsmdbCons }},
	{"asmdb-ideal+cons", conservative, progTriggers, func(m *Matrix) *core.Stats { return &m.AsmdbConsIdeal }},
	{"asmdb+fdp24", fdp24, progAsmdb, func(m *Matrix) *core.Stats { return &m.AsmdbFDP }},
	{"asmdb-ideal+fdp24", fdp24, progTriggers, func(m *Matrix) *core.Stats { return &m.AsmdbFDPIdeal }},
	{"mana+fdp24", onFDP24(func(c *core.Config) (err error) {
		c.Frontend.Prefetcher, err = hwpf.NewMANA(hwpf.DefaultMANAConfig())
		return err
	}), progBase, func(m *Matrix) *core.Stats { return &m.MANAFDP }},
	{"shadow+fdp24", onFDP24(func(c *core.Config) error {
		c.Frontend.Shadow = bpu.DefaultShadowConfig()
		return nil
	}), progBase, func(m *Matrix) *core.Stats { return &m.ShadowFDP }},
	{"itlb+fdp24", onFDP24(func(c *core.Config) error {
		c.Memory.ITLB = cache.DefaultITLBConfig()
		return nil
	}), progBase, func(m *Matrix) *core.Stats { return &m.ITLBFDP }},
}

// numSeries is the number of per-workload series.
const numSeries = len(seriesTable)

// profileRow is the series whose IPC seeds the AsmDB profiler, so its
// machine's fingerprint is every plan's provenance. The paper profiles on
// the pre-FDP machine AsmDB's authors evaluated.
const profileRow = 0

// A machine builds a series' front-end configuration, before Params.stamp
// sets budgets and run modes. Every call returns a distinct Config:
// prefetcher instances carry learned state.
type machine func() (core.Config, error)

// conservative is the paper's 2-entry-FTQ baseline front-end.
func conservative() (core.Config, error) { return core.ConservativeConfig(), nil }

// fdp24 is the industry-standard 24-entry FDP front-end.
func fdp24() (core.Config, error) { return core.DefaultConfig(), nil }

// onFDP24 is fdp24 with one configuration edit.
func onFDP24(edit func(*core.Config) error) machine {
	return func() (core.Config, error) {
		c := core.DefaultConfig()
		err := edit(&c)
		return c, err
	}
}

// config is the series' machine under p's budgets and run modes.
func (s *series) config(p Params) (core.Config, error) {
	c, err := s.machine()
	if err != nil {
		return core.Config{}, err
	}
	return p.stamp(c), nil
}

// key is the series' run-cache identity for spec under p. A base-program
// series is keyed by its own configuration's fingerprint; a planned one
// by its machine's fingerprint plus the provenance of plan, which must
// then be p.planKeyFor(spec).
func (s *series) key(spec workload.Spec, p Params, plan planKey) (simKey, error) {
	c, err := s.config(p)
	if err != nil {
		return simKey{}, err
	}
	k := baseSimKey(spec, p, c)
	if s.program != progBase {
		opts := plan.AsmDB
		k.Program, k.AsmDB, k.ProfileInstrs, k.ProfileConfig = s.program, &opts, plan.ProfileInstrs, plan.ProfileConfig
	}
	return k, nil
}

// stamp sets p's instruction budgets and its run modes — Audit,
// FastForward and Sampling, which every simulated cell takes from Params
// — on c.
func (p Params) stamp(c core.Config) core.Config {
	c.WarmupInstrs, c.MaxInstrs = p.WarmupInstrs, p.MeasureInstrs
	c.Audit, c.FastForward, c.Sampling = p.Audit, p.FastForward, p.Sampling
	return c
}

// Program-variant tags in run-cache keys. The config fingerprint cannot
// see which instruction stream it runs against, so the key must.
const (
	progBase     = "base"          // the workload's generated program
	progAsmdb    = "asmdb"         // AsmDB-rewritten program
	progTriggers = "base+triggers" // base program plus plan-derived trigger table
)

// simKey is the canonical identity of one simulation run: everything that
// determines its Stats bit-for-bit, and nothing else. For plan-derived
// runs (rewritten programs, trigger tables) the plan's full provenance —
// AsmDB options, profile budget, and the fingerprint of the configuration
// whose IPC seeds the profiler — stands in for the plan content, because
// planning is a deterministic function of that provenance. Schema is
// core.FingerprintSchema, the run cache's single version.
type simKey struct {
	Schema        int            `json:"schema"`
	Kind          string         `json:"kind"`
	Workload      workload.Spec  `json:"workload"`
	Program       string         `json:"program"`
	AsmDB         *asmdb.Options `json:"asmdb,omitempty"`
	ProfileInstrs int64          `json:"profile_instrs,omitempty"`
	ProfileConfig string         `json:"profile_config,omitempty"`
	Config        string         `json:"config"`
	ExecSeed      uint64         `json:"exec_seed"`
}

// planKey addresses the cached AsmDB plan (and its static bloat) for one
// workload under one profiling setup.
type planKey struct {
	Schema        int           `json:"schema"`
	Kind          string        `json:"kind"`
	Workload      workload.Spec `json:"workload"`
	AsmDB         asmdb.Options `json:"asmdb"`
	ProfileInstrs int64         `json:"profile_instrs"`
	ProfileConfig string        `json:"profile_config"`
	ExecSeed      uint64        `json:"exec_seed"`
}

// planEntry is the cached plan value. Its JSON form holds the plan in
// asmdb's compact binary form (base64 inside JSON), a quarter the size of
// the Plan's own JSON and decoded without reflection. An entry cached in
// the earlier object-shaped form fails to decode and so is a miss, which
// recomputes and overwrites it; no schema bump is needed.
type planEntry struct {
	Plan        *asmdb.Plan
	StaticBloat float64
}

// planEntryJSON is planEntry's stored shape.
type planEntryJSON struct {
	Plan        []byte  `json:"plan"`
	StaticBloat float64 `json:"static_bloat"`
}

func (e planEntry) MarshalJSON() ([]byte, error) {
	plan, err := e.Plan.AppendBinary(nil)
	if err != nil {
		return nil, err
	}
	return json.Marshal(planEntryJSON{Plan: plan, StaticBloat: e.StaticBloat})
}

func (e *planEntry) UnmarshalJSON(data []byte) error {
	var in planEntryJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	plan := new(asmdb.Plan)
	if err := plan.UnmarshalBinary(in.Plan); err != nil {
		return err
	}
	e.Plan, e.StaticBloat = plan, in.StaticBloat
	return nil
}

// baseSimKey is the cache identity of a run of c against spec's
// unmodified program.
func baseSimKey(spec workload.Spec, p Params, c core.Config) simKey {
	return simKey{Schema: core.FingerprintSchema, Kind: "sim", Workload: spec,
		Program: progBase, Config: c.Fingerprint(), ExecSeed: spec.Seed ^ p.ExecSeedSalt}
}

// planKeyFor addresses spec's AsmDB plan under p, profiled on profileRow's
// machine.
func (p Params) planKeyFor(spec workload.Spec) (planKey, error) {
	c, err := seriesTable[profileRow].config(p)
	if err != nil {
		return planKey{}, err
	}
	return planKey{Schema: core.FingerprintSchema, Kind: "plan", Workload: spec, AsmDB: p.AsmDB,
		ProfileInstrs: p.ProfileInstrs, ProfileConfig: c.Fingerprint(), ExecSeed: spec.Seed ^ p.ExecSeedSalt}, nil
}

// RunMatrix builds the workload, profiles it, generates and applies the
// AsmDB plan, and runs all ten configurations, parallelized over a
// private pool and cached through p.Cache when set.
func RunMatrix(spec workload.Spec, index int, p Params) (*Matrix, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pool := runner.NewPool(p.Parallelism)
	defer pool.Close()
	ctx := context.Background() //lint:allow ctx-less wrapper by contract: a matrix is a batch run nothing cancels; callers with a lifetime use RunCellCtx
	m := &Matrix{Spec: spec, Index: index}
	if _, err := runRows(ctx, pool, m, p, everyRow, true, nil); err != nil {
		return nil, err
	}
	return m, nil
}

// everyRow wants the whole series table: a matrix.
var everyRow = func() (w [numSeries]bool) {
	for i := range w {
		w[i] = true
	}
	return w
}()

// rowsRun reports what runRows found for the rows it probed.
type rowsRun struct {
	keys [numSeries]simKey
	hit  [numSeries]bool
}

// runRows is the series planner. It fills the wanted rows of m — and,
// with wantPlan, m.Plan — from the run cache where it can, and otherwise
// does only the work those rows depend on:
//
//  1. Probe the wanted rows (and the plan). Return if all of them hit.
//  2. Otherwise probe the missing rows' dependencies — a planned row
//     needs profileRow and the plan — and build the program once.
//  3. Run the missing base-program rows as one wave.
//  4. Profile and plan, if the plan is needed and missed.
//  5. Derive only the program variants the missing planned rows use and
//     run those rows as a second wave.
//
// Wanted rows are recorded to p.Obs and pr, hit or run; dependency rows
// are only cached. Every cold cell runs through Params.runCells, joined
// with ctx, so a cancelled row is never cached.
func runRows(ctx context.Context, pool *runner.Pool, m *Matrix, p Params, want [numSeries]bool, wantPlan bool, pr *runner.Progress) (rowsRun, error) {
	spec := m.Spec
	var r rowsRun
	pk, err := p.planKeyFor(spec)
	if err != nil {
		return r, err
	}
	var probed [numSeries]bool
	probe := func(i int) error {
		s := &seriesTable[i]
		k, err := s.key(spec, p, pk)
		if err != nil {
			return err
		}
		ok, err := p.Cache.Get(k, s.slot(m))
		if err != nil {
			return err
		}
		r.keys[i], r.hit[i], probed[i] = k, ok, true
		if ok && want[i] {
			p.obsRecord(s.slot(m), spec.Name, s.label)
			pr.JobDone(spec.Name+"/"+s.label, true)
		}
		return nil
	}
	var probedPlan, havePlan bool
	probePlan := func() error {
		var pe planEntry
		var err error
		if havePlan, err = p.Cache.Get(pk, &pe); err != nil {
			return err
		}
		if havePlan {
			m.Plan, m.StaticBloat = pe.Plan, pe.StaticBloat
		}
		probedPlan = true
		return nil
	}

	missing, missingPlanned := false, false
	for i := range seriesTable {
		if !want[i] {
			continue
		}
		if err := probe(i); err != nil {
			return r, err
		}
		if !r.hit[i] {
			missing = true
			missingPlanned = missingPlanned || seriesTable[i].program != progBase
		}
	}
	if wantPlan {
		if err := probePlan(); err != nil {
			return r, err
		}
	}
	if !missing && (!wantPlan || havePlan) {
		return r, nil
	}

	needPlan := missingPlanned || wantPlan
	if needPlan {
		if !probed[profileRow] {
			if err := probe(profileRow); err != nil {
				return r, err
			}
		}
		if !probedPlan {
			if err := probePlan(); err != nil {
				return r, err
			}
		}
	}
	prog, err := spec.Build()
	if err != nil {
		return r, err
	}

	// cell wraps missed row i; its commit fills the matrix slot, stores
	// the result and, for a wanted row, records metrics and progress.
	cell := func(i int) (coldCell, error) {
		s := &seriesTable[i]
		c, err := s.config(p)
		return coldCell{series: s.label, cfg: c, prog: prog, commit: func(st core.Stats) error {
			*s.slot(m) = st
			if err := p.Cache.Put(r.keys[i], st); err != nil {
				return err
			}
			if want[i] {
				p.obsRecord(&st, spec.Name, s.label)
				pr.JobDone(spec.Name+"/"+s.label, false)
			}
			return nil
		}}, err
	}
	var wave []coldCell
	var planned []int
	for i := range seriesTable {
		if !probed[i] || r.hit[i] {
			continue
		}
		if seriesTable[i].program != progBase {
			planned = append(planned, i)
			continue
		}
		c, err := cell(i)
		if err != nil {
			return r, err
		}
		wave = append(wave, c)
	}
	if err := p.runCells(ctx, pool, spec, wave); err != nil {
		return r, err
	}

	if needPlan && !havePlan {
		if err := ctx.Err(); err != nil {
			return r, fmt.Errorf("%s plan: %w", spec.Name, err)
		}
		graph, err := cfg.Profile(trace.NewLimit(program.NewExecutor(prog, spec.Seed^p.ExecSeedSalt), p.ProfileInstrs),
			cfg.Options{IPC: seriesTable[profileRow].slot(m).IPC()})
		if err != nil {
			return r, fmt.Errorf("%s profile: %w", spec.Name, err)
		}
		if m.Plan, err = asmdb.Build(graph, p.AsmDB); err != nil {
			return r, fmt.Errorf("%s plan: %w", spec.Name, err)
		}
		m.StaticBloat = m.Plan.StaticBloat(prog)
		if err := p.Cache.Put(pk, planEntry{Plan: m.Plan, StaticBloat: m.StaticBloat}); err != nil {
			return r, err
		}
	}

	// The program variants: the AsmDB-rewritten program for the
	// insertion-overhead rows; the base program plus the plan's trigger
	// table for the ideal ones. Each is derived at most once.
	var (
		rewritten *program.Program
		triggers  map[isa.Addr][]isa.Addr
		wave2     []coldCell
	)
	for _, i := range planned {
		c, err := cell(i)
		if err != nil {
			return r, err
		}
		switch seriesTable[i].program {
		case progAsmdb:
			if rewritten == nil {
				if rewritten, _, err = asmdb.Apply(prog, m.Plan); err != nil {
					return r, fmt.Errorf("%s apply: %w", spec.Name, err)
				}
			}
			c.prog = rewritten
		case progTriggers:
			if triggers == nil {
				triggers = asmdb.Triggers(prog, m.Plan)
			}
			c.cfg.Triggers = triggers
		}
		wave2 = append(wave2, c)
	}
	return r, p.runCells(ctx, pool, spec, wave2)
}

// coldCell is one cache-missed simulation of a workload: a configuration
// over a program, named by its series label.
type coldCell struct {
	series string
	cfg    core.Config
	prog   *program.Program
	// commit publishes the finished stats: result slot, cache put, obs
	// record and, for matrix rows, the progress line.
	commit func(core.Stats) error
}

// runCells is the one cold-cell executor. It runs cells as one fork-join
// wave on pool, each cell its own stealable job that simulates and then
// commits, and joins with ctx: a cancelled join unqueues the cells not yet
// started and waits for the running ones, which poll the same ctx
// (core.RunSourceCtx) and stop without committing. Errors name the
// workload and the series.
func (p Params) runCells(ctx context.Context, pool *runner.Pool, spec workload.Spec, cells []coldCell) error {
	if len(cells) == 0 {
		return nil
	}
	g := pool.NewGroup()
	for _, c := range cells {
		g.Go(func() error {
			st, err := p.simulate(ctx, c.cfg, c.prog, spec, c.series)
			if err != nil {
				return fmt.Errorf("%s %s: %w", spec.Name, c.series, err)
			}
			return c.commit(st)
		})
	}
	err := g.WaitCtx(ctx)
	if err != nil && err == ctx.Err() {
		// The join gave up before any cell reported: name every cell the
		// cancellation abandoned.
		labels := make([]string, len(cells))
		for i, c := range cells {
			labels[i] = c.series
		}
		return fmt.Errorf("%s %s: %w", spec.Name, strings.Join(labels, ","), err)
	}
	return err
}

// simulate runs c over a fresh executor of prog with ctx, attaching the
// per-run observer Params.ObsRun supplies for (workload, series) and
// closing it after.
func (p Params) simulate(ctx context.Context, c core.Config, prog *program.Program, spec workload.Spec, series string) (core.Stats, error) {
	if p.ObsRun != nil {
		c.Obs = p.ObsRun(spec.Name, series)
	}
	st, err := core.RunSourceCtx(ctx, c, program.NewExecutor(prog, spec.Seed^p.ExecSeedSalt))
	if cl, ok := c.Obs.(io.Closer); ok {
		if cerr := cl.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing observer: %w", cerr)
		}
	}
	return st, err
}

// RunSuite runs matrices for every spec, in parallel, preserving order.
// progress (optional) receives one line per completed workload.
func RunSuite(specs []workload.Spec, p Params, progress func(string)) ([]*Matrix, error) {
	return RunSuiteMonitor(specs, p, progress, nil)
}

// RunSuiteMonitor is RunSuite with an additional per-job channel:
// jobProgress (optional) receives one line per completed
// (workload, configuration) simulation, with elapsed time and ETA.
func RunSuiteMonitor(specs []workload.Spec, p Params, progress, jobProgress func(string)) ([]*Matrix, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pool := runner.NewPool(p.Parallelism)
	defer pool.Close()
	pr := runner.NewProgress(jobProgress)
	pr.AddTotal(numSeries * len(specs))

	ctx := context.Background() //lint:allow ctx-less wrapper by contract: a suite is a batch run nothing cancels; callers with a lifetime use RunCellCtx
	out := make([]*Matrix, len(specs))
	errs := make([]error, len(specs))
	g := pool.NewGroup()
	for i, spec := range specs {
		i, spec := i, spec
		g.Go(func() error {
			m := &Matrix{Spec: spec, Index: i + 1}
			_, err := runRows(ctx, pool, m, p, everyRow, true, pr)
			out[i], errs[i] = m, err
			if progress != nil {
				if err != nil {
					progress(fmt.Sprintf("[%2d/%d] %-18s FAILED: %v", i+1, len(specs), spec.Name, err))
				} else {
					progress(fmt.Sprintf("[%2d/%d] %-18s base=%.3f fdp=%.3f asmdb+fdp=%.3f mpki=%.1f",
						i+1, len(specs), spec.Name, m.Cons.IPC(), m.Speedup(m.FDP), m.Speedup(m.AsmdbFDP), m.FDP.L1IMPKI()))
				}
			}
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("workload %d (%s): %w", i+1, specs[i].Name, err)
		}
	}
	return out, nil
}
