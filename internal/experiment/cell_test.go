package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"frontsim/internal/core"
	"frontsim/internal/obs"
	"frontsim/internal/runner"
	"frontsim/internal/workload"
)

func cellParams(t *testing.T, dir string) Params {
	t.Helper()
	p := DefaultParams()
	p.WarmupInstrs = 20_000
	p.MeasureInstrs = 60_000
	p.ProfileInstrs = 80_000
	c, err := runner.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	p.Cache = c
	return p
}

// TestCellMatchesSuite pins the serving layer's core guarantee: a cell
// produced by RunCellCtx is byte-identical to the same cell produced by
// the suite path, and the two share one cache entry.
func TestCellMatchesSuite(t *testing.T) {
	dir := t.TempDir()
	p := cellParams(t, dir)
	spec := workload.All()[0]

	m, err := RunMatrix(spec, 1, p)
	if err != nil {
		t.Fatal(err)
	}

	pool := runner.NewPool(2)
	defer pool.Close()
	for id := range seriesTable {
		label := seriesTable[id].label
		res, err := RunCellCtx(context.Background(), pool, spec, label, p)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !res.Cached {
			t.Fatalf("%s: cell missed the cache the suite populated", label)
		}
		want, err := seriesTable[id].slot(m).CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.Stats.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: cell and suite stats differ:\ncell:  %s\nsuite: %s", label, got, want)
		}
	}
}

// matrixFields maps each series label to its Matrix field, spelled out
// independently of the series table so a row routed to the wrong slot
// fails here.
func matrixFields(m *Matrix) map[string]*core.Stats {
	return map[string]*core.Stats{
		"cons": &m.Cons, "fdp24": &m.FDP, "eip+fdp24": &m.EIPFDP,
		"asmdb+cons": &m.AsmdbCons, "asmdb-ideal+cons": &m.AsmdbConsIdeal,
		"asmdb+fdp24": &m.AsmdbFDP, "asmdb-ideal+fdp24": &m.AsmdbFDPIdeal,
		"mana+fdp24": &m.MANAFDP, "shadow+fdp24": &m.ShadowFDP, "itlb+fdp24": &m.ITLBFDP,
	}
}

// TestSeriesOrderPinned pins the suite's series labels to their literal
// order, and Mechanisms() to the base-program subset of them in the same
// order, each keyed exactly like its series. Consumers index by position:
// the serving layer's /v1/workloads and the benchmark's suite digest.
func TestSeriesOrderPinned(t *testing.T) {
	want := []string{"cons", "fdp24", "eip+fdp24", "asmdb+cons", "asmdb-ideal+cons",
		"asmdb+fdp24", "asmdb-ideal+fdp24", "mana+fdp24", "shadow+fdp24", "itlb+fdp24"}
	if got := SeriesLabels(); !reflect.DeepEqual(got, want) {
		t.Fatalf("SeriesLabels() = %q, want %q", got, want)
	}
	wantMechs := []string{"cons", "fdp24", "eip+fdp24", "mana+fdp24", "shadow+fdp24", "itlb+fdp24"}
	mechs := Mechanisms()
	if got := mechanismLabels(mechs); !reflect.DeepEqual(got, wantMechs) {
		t.Fatalf("Mechanisms() labels = %q, want %q", got, wantMechs)
	}
	spec := workload.All()[0]
	p := DefaultParams()
	for _, m := range mechs {
		c, err := m.Config(p)
		if err != nil {
			t.Fatalf("%s: %v", m.Label, err)
		}
		cfgAddr, err := ConfigCellAddress(spec, c, p)
		if err != nil {
			t.Fatal(err)
		}
		cellAddr, err := CellAddress(spec, m.Label, p)
		if err != nil {
			t.Fatal(err)
		}
		if cfgAddr != cellAddr {
			t.Errorf("mechanism %s addresses %s, its series %s", m.Label, cfgAddr, cellAddr)
		}
	}
}

// TestColdCellMatchesSuite runs every series cold through the
// single-cell path, each into its own fresh cache, and asserts it
// reproduces the suite bit for bit: the same stats, the same content
// address, and only cache entries the suite also wrote, byte-identical —
// dependencies (baseline, plan) included. A cold cell observes every run
// it makes through Params.ObsRun, under the series label.
func TestColdCellMatchesSuite(t *testing.T) {
	spec := workload.All()[0]

	suiteP := cellParams(t, t.TempDir())
	m, err := RunMatrix(spec, 1, suiteP)
	if err != nil {
		t.Fatal(err)
	}
	suite := snapshotDir(t, suiteP.Cache.Dir())
	fields := matrixFields(m)

	pool := runner.NewPool(2)
	defer pool.Close()
	for _, label := range SeriesLabels() {
		t.Run(label, func(t *testing.T) {
			dir := t.TempDir()
			cellP := cellParams(t, dir)
			var mu sync.Mutex
			observed := map[string]int{}
			cellP.ObsRun = func(wl, series string) obs.Sink {
				mu.Lock()
				defer mu.Unlock()
				observed[wl+"/"+series]++
				return nil
			}
			res, err := RunCellCtx(context.Background(), pool, spec, label, cellP)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cached {
				t.Fatal("cold cell reported a cache hit")
			}
			field, ok := fields[label]
			if !ok {
				t.Fatalf("series %q has no matrix field", label)
			}
			want, err := field.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			got, err := res.Stats.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("cold cell diverged from suite:\ncell:  %s\nsuite: %s", got, want)
			}

			addr, err := CellAddress(spec, label, cellP)
			if err != nil {
				t.Fatal(err)
			}
			if addr != res.Fingerprint {
				t.Fatalf("CellAddress %s != RunCellCtx fingerprint %s", addr, res.Fingerprint)
			}
			cell := snapshotDir(t, dir)
			if _, ok := cell[filepath.ToSlash(filepath.Join(addr[:2], addr+".json"))]; !ok {
				t.Fatalf("cold cell left no entry at its address %s", addr)
			}
			for rel, b := range cell {
				sb, ok := suite[rel]
				if !ok {
					t.Errorf("cold cell wrote %s, which the suite did not", rel)
				} else if !bytes.Equal(b, sb) {
					t.Errorf("cold cell's entry %s differs from the suite's", rel)
				}
			}

			if observed[spec.Name+"/"+label] != 1 {
				t.Errorf("ObsRun calls %v: want one for %s/%s", observed, spec.Name, label)
			}
			for k := range observed {
				if k != spec.Name+"/"+label && k != spec.Name+"/cons" {
					t.Errorf("ObsRun called for %s, neither the cell nor its baseline", k)
				}
			}
		})
	}
}

// cacheDirState scans a cache directory: entry files, temp litter.
func cacheDirState(t *testing.T, dir string) (entries, temps []string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		if strings.HasPrefix(d.Name(), ".tmp-") {
			temps = append(temps, path)
		} else {
			entries = append(entries, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return entries, temps
}

// TestCancelledCellNeverCached cancels cell executions and asserts the
// run cache never contains the cancelled cell: a pre-cancelled request
// writes nothing at all, and a mid-run cancellation leaves only valid,
// fully-written dependency entries — never the requested cell, never temp
// litter.
func TestCancelledCellNeverCached(t *testing.T) {
	spec := workload.All()[0]
	pool := runner.NewPool(2)
	defer pool.Close()

	t.Run("pre-cancelled", func(t *testing.T) {
		dir := t.TempDir()
		p := cellParams(t, dir)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := RunCellCtx(ctx, pool, spec, "fdp24", p)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunCellCtx = %v, want context.Canceled", err)
		}
		if want := spec.Name + " fdp24: "; !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name the cell (%q)", err, want)
		}
		entries, temps := cacheDirState(t, dir)
		if len(entries) != 0 || len(temps) != 0 {
			t.Fatalf("pre-cancelled cell wrote to the cache: entries %v temps %v", entries, temps)
		}
	})

	// A planned cell whose dependencies are already cached fails on its
	// own run, and the error names its series, not its machine.
	t.Run("pre-cancelled-planned", func(t *testing.T) {
		dir := t.TempDir()
		p := cellParams(t, dir)
		if _, err := RunCellCtx(context.Background(), pool, spec, "asmdb+fdp24", p); err != nil {
			t.Fatal(err)
		}
		before, _ := cacheDirState(t, dir)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := RunCellCtx(ctx, pool, spec, "asmdb-ideal+fdp24", p)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunCellCtx = %v, want context.Canceled", err)
		}
		if want := spec.Name + " asmdb-ideal+fdp24: "; !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name the cell (%q)", err, want)
		}
		after, temps := cacheDirState(t, dir)
		if len(after) != len(before) || len(temps) != 0 {
			t.Fatalf("pre-cancelled cell wrote to the cache: entries %d -> %d, temps %v", len(before), len(after), temps)
		}
	})

	t.Run("mid-run", func(t *testing.T) {
		dir := t.TempDir()
		p := cellParams(t, dir)
		addr, err := CellAddress(spec, "asmdb+fdp24", p)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(30 * time.Millisecond)
			cancel()
		}()
		_, err = RunCellCtx(ctx, pool, spec, "asmdb+fdp24", p)
		if err == nil {
			t.Skip("run completed before the cancel landed; nothing to assert")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunCellCtx = %v, want context.Canceled", err)
		}
		if !strings.Contains(err.Error(), spec.Name+" ") {
			t.Fatalf("error %q does not name the workload", err)
		}
		entries, temps := cacheDirState(t, dir)
		if len(temps) != 0 {
			t.Fatalf("cancelled cell left temp litter: %v", temps)
		}
		for _, e := range entries {
			if strings.HasSuffix(e, addr+".json") {
				t.Fatalf("cancelled cell %s was written to the cache", addr)
			}
			// Whatever dependencies completed must be whole entries.
			b, err := os.ReadFile(e)
			if err != nil {
				t.Fatal(err)
			}
			if !json.Valid(b) {
				t.Fatalf("torn cache entry %s", e)
			}
		}
	})
}

// TestStoreCellBytesRoundTrip pins the peer write-back contract: bytes
// produced by a cell run on one cache, stored verbatim into a second
// cache via StoreCellBytes, yield a byte-identical on-disk entry — the
// property that makes a sharded cluster's caches converge — and the
// second cache answers ProbeCell without executing anything.
func TestStoreCellBytesRoundTrip(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	pA := cellParams(t, dirA)
	pB := cellParams(t, dirB)
	spec := workload.All()[0]

	pool := runner.NewPool(2)
	defer pool.Close()
	res, err := RunCellCtx(context.Background(), pool, spec, "fdp24", pA)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := res.Stats.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}

	if err := StoreCellBytes(spec, "fdp24", pB, raw); err != nil {
		t.Fatal(err)
	}

	entry := filepath.Join(res.Fingerprint[:2], res.Fingerprint+".json")
	a, err := os.ReadFile(filepath.Join(dirA, entry))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dirB, entry))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("stored entry differs from the executed one:\nA: %s\nB: %s", a, b)
	}

	st, addr, ok, err := ProbeCell(spec, "fdp24", pB)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || addr != res.Fingerprint {
		t.Fatalf("probe after store: ok=%v addr=%s, want hit at %s", ok, addr, res.Fingerprint)
	}
	got, err := st.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatal("probed stats decode to different canonical bytes")
	}

	// Garbage and schema-mismatched payloads must be refused before the
	// cache is touched.
	if err := StoreCellBytes(spec, "fdp24", pB, []byte(`{"not_a_stat":1}`)); err == nil {
		t.Fatal("unknown-field payload accepted")
	}
	if err := StoreCellBytes(spec, "fdp24", pB, []byte(`garbage`)); err == nil {
		t.Fatal("non-JSON payload accepted")
	}
	if err := StoreCellBytes(spec, "no-such-series", pB, raw); err == nil {
		t.Fatal("unknown series accepted")
	}
}
