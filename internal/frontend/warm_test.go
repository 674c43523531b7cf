package frontend

import (
	"reflect"
	"testing"

	"frontsim/internal/bpu"
	"frontsim/internal/cache"
	"frontsim/internal/hwpf"
	"frontsim/internal/isa"
	"frontsim/internal/program"
	"frontsim/internal/trace"
	"frontsim/internal/workload"
	"frontsim/internal/xrand"
)

// blockOnly hides a source's NextWarmRun, so WarmFunctional reaches it
// through the trace.WarmRun.Reduce adapter over NextBlock.
type blockOnly struct{ trace.BlockSource }

// TestWarmFunctionalRunEquivalence runs WarmFunctional over an executor
// (reduced runs straight from NextWarmRun) and over the same executor
// behind blockOnly (runs reduced from NextBlock), with the shadow decoder,
// the I-TLB, MANA and software prefetches on, with and without a trigger
// table. Budgets end mid-run, so each call's overshoot and the next call's
// fresh line tracking are exercised. Every call must consume the same
// count, and the caches, I-TLB, BTB and predictors must end identical.
func TestWarmFunctionalRunEquivalence(t *testing.T) {
	spec, ok := workload.Lookup("public_srv_60")
	if !ok {
		t.Fatal("public_srv_60 missing")
	}
	base, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	prog := base.Clone()
	r := xrand.New(16)
	var blocks []program.BlockRef
	for fi, f := range prog.Funcs {
		for bi := range f.Blocks {
			blocks = append(blocks, program.BlockRef{Func: program.FuncID(fi), Block: bi})
		}
	}
	for i := 0; i < 300; i++ {
		at := blocks[r.Intn(len(blocks))]
		pos := r.Intn(len(prog.Block(at).Body) + 1)
		if err := prog.InsertPrefetchDeferred(at, pos, blocks[r.Intn(len(blocks))], r.Intn(8)); err != nil {
			t.Fatal(err)
		}
	}
	prog.Layout()
	triggers := map[isa.Addr][]isa.Addr{}
	for i := 0; i < 500; i++ {
		b := prog.Block(blocks[r.Intn(len(blocks))])
		pc := b.InstrPC(r.Intn(b.NumInstrs()))
		triggers[pc] = append(triggers[pc], prog.Block(blocks[r.Intn(len(blocks))]).Addr)
	}

	build := func(t *testing.T, src trace.Source, trig map[isa.Addr][]isa.Addr) *Frontend {
		t.Helper()
		cfg := DefaultConfig()
		cfg.Shadow = bpu.DefaultShadowConfig()
		mana, err := hwpf.NewMANA(hwpf.DefaultMANAConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Prefetcher = mana
		hc := cache.DefaultHierarchyConfig()
		hc.ITLB = cache.DefaultITLBConfig()
		h, err := cache.NewHierarchy(hc)
		if err != nil {
			t.Fatal(err)
		}
		fe, err := New(cfg, src, h, trig)
		if err != nil {
			t.Fatal(err)
		}
		return fe
	}
	for _, tc := range []struct {
		name string
		trig map[isa.Addr][]isa.Addr
	}{{"no-triggers", nil}, {"triggers", triggers}} {
		t.Run(tc.name, func(t *testing.T) {
			viaRuns := build(t, program.NewExecutor(prog, 3), tc.trig)
			viaBlocks := build(t, blockOnly{program.NewExecutor(prog, 3)}, tc.trig)
			if viaRuns.wsrc == nil || viaBlocks.wsrc != nil {
				t.Fatal("sources do not take the two warm paths")
			}
			now := cache.Cycle(0)
			for _, n := range []int64{1, 2, 5, 3, 1000, 777, 20_000, 13, 50_000, 1} {
				a, b := viaRuns.WarmFunctional(n, now), viaBlocks.WarmFunctional(n, now)
				if a != b {
					t.Fatalf("budget %d: consumed %d over reduced runs, %d over blocks", n, a, b)
				}
				now += 100
			}
			for _, c := range []struct {
				name string
				a, b any
			}{
				{"L1-I", viaRuns.mem.L1I, viaBlocks.mem.L1I},
				{"L1-D", viaRuns.mem.L1D, viaBlocks.mem.L1D},
				{"L2", viaRuns.mem.L2, viaBlocks.mem.L2},
				{"LLC", viaRuns.mem.LLC, viaBlocks.mem.LLC},
				{"I-TLB", viaRuns.mem.ITLB, viaBlocks.mem.ITLB},
				{"BTB and predictors", viaRuns.bp, viaBlocks.bp},
				{"shadow decoder", viaRuns.sd, viaBlocks.sd},
				{"MANA", viaRuns.cfg.Prefetcher, viaBlocks.cfg.Prefetcher},
			} {
				if !reflect.DeepEqual(c.a, c.b) {
					t.Errorf("%s state differs between the warm paths", c.name)
				}
			}
		})
	}
}
