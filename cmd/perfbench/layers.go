package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"time"

	"frontsim/internal/backend"
	"frontsim/internal/bpu"
	"frontsim/internal/cache"
	"frontsim/internal/core"
	"frontsim/internal/experiment"
	"frontsim/internal/frontend"
	"frontsim/internal/ftq"
	"frontsim/internal/isa"
	"frontsim/internal/program"
	"frontsim/internal/runner"
	"frontsim/internal/serve"
	"frontsim/internal/trace"
	"frontsim/internal/workload"
)

// Sizes of the layer microbenchmarks. Each drives one component from a
// recorded in-memory stream of the workload's own program.
const (
	streamInstrs = 1_000_000 // recorded stream per program
	drainInstrs  = 2_000_000 // NextBlock drained per program
	microReps    = 3         // repeats per microbenchmark; the median counts
	handSample   = 16        // the hand loop times one cycle in handSample
	storeOps     = 200       // run-cache and handler calls timed
)

// serveBudgets are the reduced instruction budgets of served cells.
func serveBudgets(p experiment.Params) experiment.Params {
	p.WarmupInstrs, p.MeasureInstrs, p.ProfileInstrs = 20_000, 60_000, 80_000
	return p
}

// layerTotals accumulates microbenchmark time and operation counts over
// the workload's programs.
type layerTotals struct {
	nextNs, nextOps     float64
	bpuNs, bpuOps       float64
	wrongPath, bpuInstr float64
	ftqNs, ftqOps       float64
	accNs, accOps       float64
	warmNs, warmOps     float64
	feNs, dispNs, retNs float64
	timedCycles, disps  float64
	instrs              float64
	sc2, sc3, ftqCycles float64
	l1iMiss, l2, dram   float64
	pfUseful, pfIssued  float64
}

// handCounts are the hand loop's headline counters, printed beside
// core.RunSource's.
type handCounts struct{ cycles, instrs, l1iAccesses int64 }

// measureLayers runs the layer microbenchmarks and the hand-driven cycle
// loop over specs and records their per-layer metrics in res.
func measureLayers(e *env, tr *tracer, specs []workload.Spec, res *result) error {
	root := tr.begin("layers", 0, 0)
	defer tr.end(root)
	salt := e.salt
	var lt layerTotals
	var refStats core.Stats
	for _, spec := range specs {
		prog, err := spec.Build()
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		seed := spec.Seed ^ salt
		id := tr.begin("program.nextblock "+spec.Name, root, 0)
		lt.nextNs += medianRun(func() float64 { return drainNextBlock(prog, seed) })
		lt.nextOps += drainInstrs
		tr.end(id)

		instrs, blocks, err := recordStream(prog, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		id = tr.begin("bpu.predict "+spec.Name, root, 0)
		branches := 0
		for i := range instrs {
			if instrs[i].Class.IsBranch() {
				branches++
			}
		}
		var wrong int
		lt.bpuNs += medianRun(func() float64 {
			var ns float64
			ns, wrong = predictAll(instrs)
			return ns
		})
		lt.bpuOps += float64(branches)
		lt.wrongPath += float64(wrong)
		lt.bpuInstr += float64(len(instrs))
		tr.end(id)

		id = tr.begin("ftq.push_tick_pop "+spec.Name, root, 0)
		var ftqCycles int
		lt.ftqNs += medianRun(func() float64 {
			var ns float64
			ns, ftqCycles = driveFTQ(instrs, blocks)
			return ns
		})
		lt.ftqOps += float64(ftqCycles)
		tr.end(id)

		lines := lineStream(instrs)
		id = tr.begin("cache.access "+spec.Name, root, 0)
		lt.accNs += medianRun(func() float64 { return accessLines(lines) })
		lt.accOps += float64(len(lines))
		tr.end(id)
		id = tr.begin("cache.warm "+spec.Name, root, 0)
		lt.warmNs += medianRun(func() float64 { return warmLines(lines) })
		lt.warmOps += float64(len(lines))
		tr.end(id)

		id = tr.begin("hand_loop "+spec.Name, root, 0)
		ref, hand, ok, err := handLoop(prog, seed, &lt)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s hand loop: %w", spec.Name, err)
		}
		res.check(e.log, ok, "%s: hand-driven frontend/backend/cache loop differs from core.RunSource", spec.Name)
		fmt.Fprintf(e.log, "hand loop %-16s %d cycles, %d instructions, %d L1-I accesses (core.RunSource: %d, %d, %d)\n",
			spec.Name, hand.cycles, hand.instrs, hand.l1iAccesses, ref.Cycles, ref.Instructions, ref.L1I.Accesses)
		refStats = ref
	}
	m := res.metrics
	m["program.nextblock_minstrs_per_s"] = lt.nextOps / lt.nextNs * 1e3
	m["bpu.predict_ns"] = lt.bpuNs / lt.bpuOps
	m["bpu.mispredicts_pki"] = lt.wrongPath / lt.bpuInstr * 1e3
	m["ftq.push_tick_pop_ns"] = lt.ftqNs / lt.ftqOps
	m["cache.access_ns"] = lt.accNs / lt.accOps
	m["cache.warm_ns"] = lt.warmNs / lt.warmOps
	m["frontend.cycle_ns"] = lt.feNs / lt.timedCycles
	m["backend.dispatch_ns"] = lt.dispNs / lt.disps
	m["backend.retire_ns"] = lt.retNs / lt.timedCycles
	m["ftq.scenario2_share"] = lt.sc2 / lt.ftqCycles
	m["ftq.scenario3_share"] = lt.sc3 / lt.ftqCycles
	m["cache.l1i_mpki"] = lt.l1iMiss / lt.instrs * 1e3
	m["cache.l2_accesses_pki"] = lt.l2 / lt.instrs * 1e3
	m["cache.dram_accesses_pki"] = lt.dram / lt.instrs * 1e3
	m["cache.prefetch_accuracy"] = lt.pfUseful / lt.pfIssued

	if _, ok := m["core.functional_minstrs_per_s"]; !ok {
		id := tr.begin("core.sampled "+specs[0].Name, root, 0)
		mips, err := functionalRate(e, specs[0])
		tr.end(id)
		if err != nil {
			return err
		}
		m["core.functional_minstrs_per_s"] = mips
	}
	return storeLayers(e, tr, root, specs[0], refStats, res)
}

// medianRun runs fn microReps times and returns the median of its results.
func medianRun(fn func() float64) float64 {
	xs := make([]float64, microReps)
	for i := range xs {
		xs[i] = fn()
	}
	return median(xs)
}

// drainNextBlock times Executor.NextBlock drained into one reused buffer.
func drainNextBlock(prog *program.Program, seed uint64) float64 {
	ex := program.NewExecutor(prog, seed)
	buf := make([]isa.Instr, 0, ftq.MaxBlockInstrs)
	n := 0
	t0 := time.Now()
	for n < drainInstrs {
		var err error
		buf, err = ex.NextBlock(buf[:0], ftq.MaxBlockInstrs)
		if err != nil {
			break
		}
		n += len(buf)
	}
	return float64(time.Since(t0).Nanoseconds())
}

// recordStream records streamInstrs instructions of the program's dynamic
// stream, cut into FTQ-sized blocks; blocks[i] is the end of block i.
func recordStream(prog *program.Program, seed uint64) ([]isa.Instr, []int, error) {
	ex := program.NewExecutor(prog, seed)
	instrs := make([]isa.Instr, 0, streamInstrs+ftq.MaxBlockInstrs)
	buf := make([]isa.Instr, 0, ftq.MaxBlockInstrs)
	var blocks []int
	for len(instrs) < streamInstrs {
		var err error
		buf, err = ex.NextBlock(buf[:0], ftq.MaxBlockInstrs)
		if len(buf) > 0 {
			instrs = append(instrs, buf...)
			blocks = append(blocks, len(instrs))
		}
		if errors.Is(err, trace.ErrEnd) {
			break
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return instrs, blocks, nil
}

// predictAll drives a fresh BPU over the recorded branches; it returns the
// elapsed nanoseconds and how many predictions left the true path.
func predictAll(instrs []isa.Instr) (float64, int) {
	b := bpu.MustNew(bpu.DefaultConfig())
	wrong := 0
	t0 := time.Now()
	for i := range instrs {
		if !instrs[i].Class.IsBranch() {
			continue
		}
		if !b.PredictAndTrain(instrs[i]).CorrectPath {
			wrong++
		}
	}
	return float64(time.Since(t0).Nanoseconds()), wrong
}

// driveFTQ pushes the recorded blocks through a 24-entry FTQ, one
// Push/Tick/PopReady round per cycle, with a fixed-latency fetch that
// misses on one line in eight. It returns elapsed nanoseconds and cycles.
func driveFTQ(instrs []isa.Instr, blocks []int) (float64, int) {
	q := ftq.New(24)
	fetch := func(line isa.Addr, now cache.Cycle) cache.Cycle {
		if (line>>6)&7 == 0 {
			return now + 30
		}
		return now + 4
	}
	out := make([]isa.Instr, 0, 8)
	var now cache.Cycle
	next, start := 0, 0
	t0 := time.Now()
	for next < len(blocks) || !q.Empty() {
		if next < len(blocks) && !q.Full() {
			if _, ok := q.Push(instrs[start:blocks[next]], now, fetch); ok {
				start = blocks[next]
				next++
			}
		}
		q.Tick(now)
		out = q.PopReady(now, 6, out[:0])
		now++
	}
	return float64(time.Since(t0).Nanoseconds()), int(now)
}

// lineStream is the recorded stream's instruction-line sequence with
// consecutive repeats folded: what the L1-I sees from fetch.
func lineStream(instrs []isa.Instr) []isa.Addr {
	var lines []isa.Addr
	var last isa.Addr = 1
	for i := range instrs {
		l := instrs[i].PC &^ (isa.LineSize - 1)
		if l != last {
			lines = append(lines, l)
			last = l
		}
	}
	return lines
}

func newHierarchy() *cache.Hierarchy {
	h, err := cache.NewHierarchy(cache.DefaultHierarchyConfig())
	if err != nil {
		panic(err) // the default configuration is valid by construction
	}
	return h
}

// accessLines times demand Level.Access calls on a fresh L1-I.
func accessLines(lines []isa.Addr) float64 {
	h := newHierarchy()
	t0 := time.Now()
	for i, l := range lines {
		h.L1I.Access(l, cache.Cycle(i)*2, cache.Demand)
	}
	return float64(time.Since(t0).Nanoseconds())
}

// warmLines times Level.Warm, the functional-warming path, on a fresh L1-I.
func warmLines(lines []isa.Addr) float64 {
	h := newHierarchy()
	t0 := time.Now()
	for _, l := range lines {
		h.L1I.Warm(l)
	}
	return float64(time.Since(t0).Nanoseconds())
}

// handLoopInstrs is the hand loop's instruction budget.
const handLoopInstrs = 1_000_000

// handLoopConfig is the hand loop's machine: the EIP hardware prefetcher
// on the FDP front-end, so the loop also drives hwpf and the L1-I sees
// prefetches (cache.prefetch_accuracy), with no warm-up and no
// fast-forward.
func handLoopConfig() (core.Config, error) {
	return seriesConfig("eip+fdp24", experiment.Params{MeasureInstrs: handLoopInstrs})
}

// seriesConfig builds a fresh configuration of the base series label, as
// the experiment package does for its cells.
func seriesConfig(label string, p experiment.Params) (core.Config, error) {
	for _, m := range experiment.Mechanisms() {
		if m.Label == label {
			return m.Config(p)
		}
	}
	return core.Config{}, fmt.Errorf("no base series %q", label)
}

// handLoop assembles the machine from cache.NewHierarchy, frontend.New and
// backend.New and steps it cycle by cycle as core.Sim.Step does, timing
// one cycle in handSample. It returns core.RunSource's result for the
// same configuration (no warm-up, no fast-forward) and whether the hand
// loop reproduced it.
func handLoop(prog *program.Program, seed uint64, lt *layerTotals) (core.Stats, handCounts, bool, error) {
	c, err := handLoopConfig()
	if err != nil {
		return core.Stats{}, handCounts{}, false, err
	}
	ref, err := core.RunSource(c, program.NewExecutor(prog, seed))
	if err != nil {
		return core.Stats{}, handCounts{}, false, err
	}
	// A fresh configuration: the prefetcher instance carries learned state.
	if c, err = handLoopConfig(); err != nil {
		return core.Stats{}, handCounts{}, false, err
	}
	mem, err := cache.NewHierarchy(c.Memory)
	if err != nil {
		return core.Stats{}, handCounts{}, false, err
	}
	fe, err := frontend.New(c.Frontend, program.NewExecutor(prog, seed), mem, nil)
	if err != nil {
		return core.Stats{}, handCounts{}, false, err
	}
	be, err := backend.New(c.Backend, mem, fe)
	if err != nil {
		return core.Stats{}, handCounts{}, false, err
	}
	// The warm-up flip of a zero-instruction warm-up, at cycle 0.
	fe.ResetStats()
	be.ResetStats()
	mem.ResetStats()
	buf := make([]isa.Instr, 0, c.DecodeWidth)
	var now cache.Cycle
	for be.RetiredProgramCount() < c.MaxInstrs && !(fe.Done() && be.Drained()) {
		timed := now%handSample == 0
		var t0, t1 time.Time
		if timed {
			t0 = time.Now()
		}
		fe.Cycle(now)
		if timed {
			t1 = time.Now()
			lt.feNs += float64(t1.Sub(t0).Nanoseconds())
		}
		budget := be.DispatchBudget()
		if budget > c.DecodeWidth {
			budget = c.DecodeWidth
		}
		if budget > 0 {
			buf = fe.Dequeue(now, budget, buf[:0])
			if len(buf) > 0 {
				if timed {
					t0 = time.Now()
				}
				be.Dispatch(buf, now)
				if timed {
					t1 = time.Now()
					lt.dispNs += float64(t1.Sub(t0).Nanoseconds())
					lt.disps++
				}
			}
		}
		if timed {
			t0 = time.Now()
		}
		be.Retire(now)
		if timed {
			lt.retNs += float64(time.Since(t0).Nanoseconds())
			lt.timedCycles++
		}
		now++
	}
	if err := fe.Err(); err != nil && !errors.Is(err, trace.ErrEnd) {
		return core.Stats{}, handCounts{}, false, err
	}
	fs := fe.FTQ().Stats()
	l1 := mem.L1I.Stats()
	l2 := mem.L2.Stats()
	bes := be.Stats()
	ok := int64(now) == ref.Cycles && bes.RetiredProgram == ref.Instructions &&
		reflect.DeepEqual(fs, ref.FTQ) && reflect.DeepEqual(fe.Stats(), ref.Frontend) &&
		reflect.DeepEqual(fe.BPU().Stats(), ref.BPU) && reflect.DeepEqual(bes, ref.Backend) &&
		reflect.DeepEqual(l1, ref.L1I) && reflect.DeepEqual(l2, ref.L2) &&
		mem.DRAM.Accesses() == ref.DRAMAccesses

	lt.instrs += float64(bes.RetiredProgram)
	lt.sc2 += float64(fs.Scenario2Cycles)
	lt.sc3 += float64(fs.Scenario3Cycles)
	lt.ftqCycles += float64(fs.Cycles)
	lt.l1iMiss += float64(l1.Misses)
	lt.l2 += float64(l2.Accesses + l2.PrefetchReqs)
	lt.dram += float64(mem.DRAM.Accesses())
	lt.pfUseful += float64(l1.PrefetchHits)
	lt.pfIssued += float64(l1.PrefetchFills)
	return ref, handCounts{int64(now), bes.RetiredProgram, l1.Accesses}, ok, nil
}

// sampledParams are the long tier's validated sampling geometry (1M-instruction
// units, 10k measured, 50k detailed warm-up) at the given coverage. The
// seed moves the end of the functional warm-up by up to 63k instructions,
// so each seed measures different windows of the same stream for the same
// host work.
func sampledParams(e *env, coverage int64) experiment.Params {
	p := e.params()
	p.WarmupInstrs += int64(e.seed%64) * 1_000
	p.MeasureInstrs = coverage
	p.Sampling = core.SamplingConfig{IntervalInstrs: 1_000_000, DetailInstrs: 10_000, WarmInstrs: 50_000}
	return p
}

// functionalRate times Sim.Done over a short sampled run of spec.
func functionalRate(e *env, spec workload.Spec) (float64, error) {
	p := sampledParams(e, 5_000_000)
	c, err := seriesConfig(sampledSeries, p)
	if err != nil {
		return 0, err
	}
	prog, err := spec.Build()
	if err != nil {
		return 0, err
	}
	var t simTimer
	if _, err := simulate(c, program.NewExecutor(prog, spec.Seed^p.ExecSeedSalt), &t); err != nil {
		return 0, err
	}
	return t.functionalMIPS(), nil
}

// storeLayers times the run cache (Put, Get), experiment.ProbeCell and the
// serve handler on warm hits, and runs one coalescing burst, on a cell of
// spec at served budgets. Each served answer is checked against ProbeCell.
func storeLayers(e *env, tr *tracer, parent int64, spec workload.Spec, sample core.Stats, res *result) error {
	dir, err := e.freshDir("layers-cache-")
	if err != nil {
		return err
	}
	c, err := runner.OpenCache(dir)
	if err != nil {
		return err
	}
	type key struct {
		Bench string `json:"bench"`
		I     int    `json:"i"`
	}
	id := tr.begin("runner.put", parent, 0)
	t0 := time.Now()
	for i := 0; i < storeOps; i++ {
		if err := c.Put(key{"perfbench", i}, sample); err != nil {
			return err
		}
	}
	res.metrics["runner.put_ms"] = millis(time.Since(t0)) / storeOps
	tr.end(id)
	id = tr.begin("runner.get", parent, 0)
	t0 = time.Now()
	for i := 0; i < storeOps; i++ {
		var got core.Stats
		ok, err := c.Get(key{"perfbench", i}, &got)
		if err != nil {
			return err
		}
		if i == 0 {
			res.check(e.log, ok && sameStats(got, sample), "run cache returned a different value than stored")
		}
	}
	res.metrics["runner.get_us"] = float64(time.Since(t0).Microseconds()) / storeOps
	tr.end(id)

	p := serveBudgets(e.params())
	p.Cache = c
	pool := runner.NewPool(workers)
	cell, err := experiment.RunCellCtx(context.Background(), pool, spec, "fdp24", p)
	pool.Close()
	if err != nil {
		return err
	}
	want, err := cell.Stats.CanonicalJSON()
	if err != nil {
		return err
	}
	id = tr.begin("experiment.probe", parent, 0)
	t0 = time.Now()
	for i := 0; i < storeOps; i++ {
		st, _, ok, err := experiment.ProbeCell(spec, "fdp24", p)
		if err != nil {
			return err
		}
		if i == 0 {
			res.check(e.log, ok && sameStats(st, cell.Stats), "ProbeCell differs from the cell it cached")
		}
	}
	res.metrics["experiment.probe_us"] = float64(time.Since(t0).Microseconds()) / storeOps
	tr.end(id)

	srv := serve.New(serve.Options{Params: p, Cache: c, Workers: workers})
	defer srv.Close()
	h := srv.Handler()
	warm := serve.CellRequest{Workload: spec.Name, Series: "fdp24"}
	id = tr.begin("serve.handler", parent, 0)
	t0 = time.Now()
	for i := 0; i < storeOps; i++ {
		code, resp, err := serveDirect(h, warm)
		if err != nil {
			return err
		}
		if i == 0 {
			res.check(e.log, code == http.StatusOK && bytes.Equal(resp.Stats, want),
				"handler answer for %s/fdp24 (status %d) differs from ProbeCell", spec.Name, code)
		}
	}
	res.metrics["serve.handler_us"] = float64(time.Since(t0).Microseconds()) / storeOps
	tr.end(id)

	// Two concurrent requests for one cold cell: the second coalesces
	// onto the first's execution.
	cold := serve.CellRequest{Workload: spec.Name, Series: "cons"}
	var wg sync.WaitGroup
	var answers [2]serve.CellResponse
	var codes [2]int
	var errs [2]error
	for i := range answers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], answers[i], errs[i] = serveDirect(h, cold)
		}(i)
	}
	wg.Wait()
	for i := range answers {
		if errs[i] != nil {
			return errs[i]
		}
		res.check(e.log, codes[i] == http.StatusOK && bytes.Equal(answers[i].Stats, answers[0].Stats),
			"coalesced answer %d (status %d) differs", i, codes[i])
	}
	if err := srv.Drain(context.Background()); err != nil {
		return err
	}
	serveCounters(srv, res)
	return nil
}

// serveDirect calls the handler in-process, with no socket.
func serveDirect(h http.Handler, req serve.CellRequest) (int, serve.CellResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, serve.CellResponse{}, err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cell", bytes.NewReader(body)))
	var resp serve.CellResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return rec.Code, resp, err
		}
	}
	return rec.Code, resp, nil
}

// serveCounters copies the server's production-path counters into res.
func serveCounters(srv *serve.Server, res *result) {
	var exec, coal, hits float64
	for _, m := range srv.MetricSet() {
		if m.Name != "simd_cells_total" || len(m.Labels) != 1 {
			continue
		}
		switch m.Labels[0].Value {
		case "executed":
			exec = m.Value
		case "coalesced":
			coal = m.Value
		case "cache":
			hits = m.Value
		}
	}
	res.metrics["serve.executions"] = exec
	res.metrics["serve.coalesced"] = coal
	res.metrics["serve.cache_hits"] = hits
	ratio := 0.0
	if exec+coal > 0 {
		ratio = coal / (exec + coal)
	}
	res.metrics["serve.coalesce_ratio"] = ratio
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
