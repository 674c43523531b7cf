package experiment

import (
	"context"
	"encoding/json"
	"fmt"

	"frontsim/internal/core"
	"frontsim/internal/runner"
	"frontsim/internal/workload"
)

// This file is the single-cell surface of the experiment harness: one
// (workload, series) simulation, addressable before it runs, executable
// with cooperative cancellation, and cached under exactly the same keys
// the suite path uses — so a cell served over HTTP (internal/serve) and
// the same cell produced by cmd/experiments are byte-identical, sharing
// one run-cache entry.

// SeriesLabels returns the ten per-workload series names, in suite
// order: cons, fdp24, eip+fdp24, asmdb+cons, asmdb-ideal+cons,
// asmdb+fdp24, asmdb-ideal+fdp24, mana+fdp24, shadow+fdp24, itlb+fdp24.
func SeriesLabels() []string {
	out := make([]string, numSeries)
	for i := range seriesTable {
		out[i] = seriesTable[i].label
	}
	return out
}

// seriesRow resolves a series name to its row of seriesTable.
func seriesRow(label string) (int, error) {
	for i := range seriesTable {
		if seriesTable[i].label == label {
			return i, nil
		}
	}
	return 0, fmt.Errorf("experiment: unknown series %q (valid: %v)", label, SeriesLabels())
}

// seriesKey is the run-cache identity of the (workload, series) cell.
func seriesKey(spec workload.Spec, series string, p Params) (simKey, error) {
	i, err := seriesRow(series)
	if err != nil {
		return simKey{}, err
	}
	s := &seriesTable[i]
	var plan planKey
	if s.program != progBase {
		if plan, err = p.planKeyFor(spec); err != nil {
			return simKey{}, err
		}
	}
	return s.key(spec, p, plan)
}

// CellResult is one completed simulation cell.
type CellResult struct {
	// Stats is the cell's statistics snapshot, identical to what the
	// suite path would cache for the same key.
	Stats core.Stats
	// Fingerprint is the cell's content address: the run-cache address of
	// its full input identity (config fingerprint, workload, seed,
	// budgets, plan provenance). Equal fingerprints mean byte-identical
	// results.
	Fingerprint string
	// Cached reports whether the result came from the run cache without
	// simulating.
	Cached bool
}

// CellAddress returns the content address of the (workload, series) cell
// under p without running anything — the coalescing and cache-lookup key
// of the serving layer.
func CellAddress(spec workload.Spec, series string, p Params) (string, error) {
	key, err := seriesKey(spec, series, p)
	if err != nil {
		return "", err
	}
	return runner.Fingerprint(key)
}

// RunCellCtx produces one (workload, series) cell through the series
// planner (runRows): from the run cache when warm, otherwise by simulating
// on pool with ctx plumbed through the scheduler join
// (runner.Group.WaitCtx) and the cycle loop (core.RunSourceCtx).
// Plan-derived series (asmdb*, asmdb-ideal*) first materialize their
// dependencies — the conservative profiling baseline and the AsmDB plan —
// through the same cache, so a cold cell performs exactly the work the
// suite path would and leaves the same entries behind.
//
// A cancelled cell is never written to the cache: cancellation aborts the
// simulation before a result exists, and dependency results are cached
// only when their own runs complete. On cancellation the returned error
// wraps ctx.Err().
func RunCellCtx(ctx context.Context, pool *runner.Pool, spec workload.Spec, series string, p Params) (CellResult, error) {
	if err := p.Validate(); err != nil {
		return CellResult{}, err
	}
	i, err := seriesRow(series)
	if err != nil {
		return CellResult{}, err
	}
	var want [numSeries]bool
	want[i] = true
	m := &Matrix{Spec: spec}
	r, err := runRows(ctx, pool, m, p, want, false, nil)
	if err != nil {
		return CellResult{}, err
	}
	addr, err := runner.Fingerprint(r.keys[i])
	if err != nil {
		return CellResult{}, err
	}
	return CellResult{Stats: *seriesTable[i].slot(m), Fingerprint: addr, Cached: r.hit[i]}, nil
}

// ProbeCell looks a (workload, series) cell up in the cache without
// executing anything: the serving layer's hot path. It returns the cell's
// content address in either case.
func ProbeCell(spec workload.Spec, series string, p Params) (core.Stats, string, bool, error) {
	key, err := seriesKey(spec, series, p)
	if err != nil {
		return core.Stats{}, "", false, err
	}
	addr, err := runner.Fingerprint(key)
	if err != nil {
		return core.Stats{}, "", false, err
	}
	var st core.Stats
	ok, err := p.Cache.Get(key, &st)
	return st, addr, ok, err
}

// StoreCellBytes writes raw — a core.Stats CanonicalJSON — into p.Cache
// under the (workload, series) cell's key, verbatim: the write-back path
// of the serving layer's peer cache fill. Storing the home node's bytes
// unmodified (rather than decode-and-re-encode) keeps the local cache
// entry byte-identical to the home's, so a sharded cluster converges to
// identical files. The bytes must decode as a stats snapshot (unknown
// fields rejected); anything else is refused before touching the cache.
func StoreCellBytes(spec workload.Spec, series string, p Params, raw []byte) error {
	if _, err := core.StatsFromJSON(raw); err != nil {
		return fmt.Errorf("experiment: refusing to store cell bytes: %w", err)
	}
	key, err := seriesKey(spec, series, p)
	if err != nil {
		return err
	}
	return p.Cache.Put(key, json.RawMessage(raw))
}

// StoreConfigCellBytes is StoreCellBytes for an arbitrary configuration
// against the workload's unmodified program.
func StoreConfigCellBytes(spec workload.Spec, c core.Config, p Params, raw []byte) error {
	if _, err := core.StatsFromJSON(raw); err != nil {
		return fmt.Errorf("experiment: refusing to store cell bytes: %w", err)
	}
	return p.Cache.Put(baseSimKey(spec, p, c), json.RawMessage(raw))
}

// ConfigCellAddress returns the content address of a run of c against
// spec's unmodified program under p — the identity ablation sweeps use
// for the same configuration.
func ConfigCellAddress(spec workload.Spec, c core.Config, p Params) (string, error) {
	return runner.Fingerprint(baseSimKey(spec, p, c))
}

// ProbeConfigCell is ProbeCell for an arbitrary configuration against the
// workload's unmodified program.
func ProbeConfigCell(spec workload.Spec, c core.Config, p Params) (core.Stats, string, bool, error) {
	key := baseSimKey(spec, p, c)
	addr, err := runner.Fingerprint(key)
	if err != nil {
		return core.Stats{}, "", false, err
	}
	var st core.Stats
	ok, err := p.Cache.Get(key, &st)
	return st, addr, ok, err
}

// RunConfigCellCtx runs an arbitrary whole-machine configuration against
// the workload's unmodified program — the serving layer's config-override
// and ablation cells — cached under exactly the key an ablation sweep of
// the same configuration would use, so served and swept cells share
// entries.
func RunConfigCellCtx(ctx context.Context, pool *runner.Pool, spec workload.Spec, c core.Config, p Params) (CellResult, error) {
	if err := p.Validate(); err != nil {
		return CellResult{}, err
	}
	if err := c.Validate(); err != nil {
		return CellResult{}, err
	}
	key := baseSimKey(spec, p, c)
	addr, err := runner.Fingerprint(key)
	if err != nil {
		return CellResult{}, err
	}
	res := CellResult{Fingerprint: addr}
	if ok, err := p.Cache.Get(key, &res.Stats); err != nil {
		return CellResult{}, err
	} else if ok {
		res.Cached = true
		p.obsRecord(&res.Stats, spec.Name, c.Name)
		return res, nil
	}
	prog, err := spec.Build()
	if err != nil {
		return CellResult{}, err
	}
	err = p.runCells(ctx, pool, spec, []coldCell{{series: c.Name, cfg: c, prog: prog, commit: func(st core.Stats) error {
		res.Stats = st
		return p.Cache.Put(key, st)
	}}})
	if err != nil {
		return CellResult{}, err
	}
	p.obsRecord(&res.Stats, spec.Name, c.Name)
	return res, nil
}
