package program_test

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"testing"

	"frontsim/internal/ftq"
	"frontsim/internal/isa"
	"frontsim/internal/program"
	"frontsim/internal/trace"
	"frontsim/internal/workload"
	"frontsim/internal/xrand"
)

// withPrefetches returns a clone of prog with n software prefetches
// inserted at random body positions, aimed at random blocks and offsets
// (some past the target's end, which resolve to its first instruction),
// so reduced runs carry prefetch ops as well as memory ops.
func withPrefetches(t testing.TB, prog *program.Program, n int, seed uint64) *program.Program {
	t.Helper()
	q := prog.Clone()
	r := xrand.New(seed)
	pick := func() program.BlockRef {
		fi := r.Intn(len(q.Funcs))
		return program.BlockRef{Func: program.FuncID(fi), Block: r.Intn(len(q.Funcs[fi].Blocks))}
	}
	for i := 0; i < n; i++ {
		at := pick()
		pos := r.Intn(len(q.Block(at).Body) + 1)
		if err := q.InsertPrefetchDeferred(at, pos, pick(), r.Intn(12)); err != nil {
			t.Fatal(err)
		}
	}
	q.Layout()
	return q
}

// checkWarmRuns drives two executors of prog with one seed, one through
// NextWarmRun and one through NextBlock reduced by trace.WarmRun.Reduce,
// under random caps in 1..ftq.MaxBlockInstrs, and requires equal runs and
// errors. It then compares the instruction streams that follow: equal
// streams mean the control and data RNG streams stayed in step.
func checkWarmRuns(t *testing.T, prog *program.Program, seed, capSeed uint64, runs int) {
	t.Helper()
	warm := program.NewExecutor(prog, seed)
	blk := program.NewExecutor(prog, seed)
	caps := xrand.New(capSeed)
	var got, want trace.WarmRun
	var buf []isa.Instr
	for i := 0; i < runs; i++ {
		max := 1 + caps.Intn(ftq.MaxBlockInstrs)
		gerr := warm.NextWarmRun(&got, max)
		var werr error
		buf, werr = blk.NextBlock(buf[:0], max)
		want.Reduce(buf)
		if !errors.Is(gerr, werr) || !equalRuns(&got, &want) {
			t.Fatalf("run %d (cap %d): NextWarmRun %+v, %v; reduced NextBlock %+v, %v", i, max, got, gerr, want, werr)
		}
		if werr != nil {
			break
		}
	}
	for i := 0; i < 4*ftq.MaxBlockInstrs*8; i++ {
		a, aerr := warm.Next()
		b, berr := blk.Next()
		if a != b || !errors.Is(aerr, berr) {
			t.Fatalf("instruction %d after the runs: %v, %v vs %v, %v", i, a, aerr, b, berr)
		}
		if aerr != nil {
			break
		}
	}
}

// equalRuns compares two runs, treating nil and empty Ops alike.
func equalRuns(a, b *trace.WarmRun) bool {
	return a.PC == b.PC && a.N == b.N && a.Prefetches == b.Prefetches && a.Term == b.Term &&
		slices.Equal(a.Ops, b.Ops)
}

// FuzzWarmRunEquivalence checks that the executor's reduced run is the
// reduction of the NextBlock run it stands for, over random workload
// programs (with software prefetches inserted), executor seeds and caps.
func FuzzWarmRunEquivalence(f *testing.F) {
	f.Add(uint64(1), uint64(7), uint64(8))
	f.Add(uint64(584), uint64(3), uint64(1))
	f.Add(uint64(60), uint64(0), uint64(99))
	specs := workload.All()
	f.Fuzz(func(t *testing.T, specSeed, execSeed, capSeed uint64) {
		spec := specs[specSeed%uint64(len(specs))]
		spec.Seed = specSeed
		prog, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		checkWarmRuns(t, withPrefetches(t, prog, 64, specSeed^execSeed), execSeed, capSeed, 4000)
	})
}

// TestWarmRunEndOfStream covers the end rule: a program whose entry
// returns ends both run kinds with ErrEnd on the same call.
func TestWarmRunEndOfStream(t *testing.T) {
	region := program.Region{Base: 0x10000000, Size: 1 << 12}
	main := &program.Func{ID: 0, Blocks: []*program.Block{
		{Body: []program.StaticInstr{{Class: isa.ClassALU}, {Class: isa.ClassLoad, Data: program.DataPattern{Kind: program.DataRandom, Region: region}}},
			Term: program.Terminator{Kind: program.TermNone}},
		{Body: []program.StaticInstr{{Class: isa.ClassStore, Data: program.DataPattern{Kind: program.DataStride, Region: region, Stride: 8}}},
			Term: program.Terminator{Kind: program.TermCall, Callee: 1}},
		{Body: []program.StaticInstr{{Class: isa.ClassALU}, {Class: isa.ClassALU}, {Class: isa.ClassALU}},
			Term: program.Terminator{Kind: program.TermReturn}},
	}}
	leaf := &program.Func{ID: 1, Blocks: []*program.Block{
		{Body: []program.StaticInstr{{Class: isa.ClassALU}}, Term: program.Terminator{Kind: program.TermReturn}},
	}}
	prog := &program.Program{Name: "ends", Base: 0x400000, Funcs: []*program.Func{main, leaf}}
	prog.Layout()
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	for capSeed := uint64(0); capSeed < 32; capSeed++ {
		checkWarmRuns(t, withPrefetches(t, prog, 2, capSeed), 5, capSeed, 100)
	}
}

// TestWarmRunManyPatterns covers memory ops whose data pattern does not fit
// the executor's pattern table and is read from the instruction itself.
func TestWarmRunManyPatterns(t *testing.T) {
	kinds := []program.DataKind{program.DataStride, program.DataRandom, program.DataPoint}
	f := &program.Func{ID: 0}
	for i := 0; i < 400; i++ {
		d := program.DataPattern{
			Kind:   kinds[i%len(kinds)],
			Region: program.Region{Base: isa.Addr(0x10000000 + i<<16), Size: 1 << 12},
			Stride: 8,
		}
		f.Blocks = append(f.Blocks, &program.Block{
			Body: []program.StaticInstr{{Class: isa.ClassLoad, Data: d}, {Class: isa.ClassALU}, {Class: isa.ClassStore, Data: d}},
			Term: program.Terminator{Kind: program.TermNone},
		})
	}
	f.Blocks[len(f.Blocks)-1].Term = program.Terminator{Kind: program.TermJump, Target: program.BlockRef{}}
	prog := &program.Program{Name: "patterns", Base: 0x400000, Funcs: []*program.Func{f}}
	prog.Layout()
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	checkWarmRuns(t, prog, 9, 9, 2000)
}

// TestSharedProgramConcurrentExecutors drives one built long-tier Program
// from four goroutines, each with its own executor, through NextBlock and
// NextWarmRun; under -race this proves both paths only read the program.
// Each stream must equal a solo run of the same seed. NewExecutor's lazy
// prog.Layout() is the executor's only write to a program, and Build has
// already laid this one out.
func TestSharedProgramConcurrentExecutors(t *testing.T) {
	spec, ok := workload.Lookup("long_srv_584")
	if !ok {
		t.Fatal("long_srv_584 missing")
	}
	prog, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	const runs = 10_000
	digest := func(seed uint64) string {
		e := program.NewExecutor(prog, seed)
		h := fnv.New64a()
		var (
			r   trace.WarmRun
			buf []isa.Instr
			err error
		)
		for i := 0; i < runs; i++ {
			if i%2 == 0 {
				if err := e.NextWarmRun(&r, ftq.MaxBlockInstrs); err != nil {
					return err.Error()
				}
				fmt.Fprint(h, r.PC, r.N, r.Prefetches, r.Ops, r.Term)
				continue
			}
			if buf, err = e.NextBlock(buf[:0], ftq.MaxBlockInstrs); err != nil {
				return err.Error()
			}
			fmt.Fprint(h, buf)
		}
		return fmt.Sprintf("%x", h.Sum64())
	}
	seeds := []uint64{1, 2, 3, 4}
	solo := make([]string, len(seeds))
	for i, s := range seeds {
		solo[i] = digest(s)
	}
	shared := make([]string, len(seeds))
	var wg sync.WaitGroup
	for i, s := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shared[i] = digest(s)
		}()
	}
	wg.Wait()
	for i := range seeds {
		if shared[i] != solo[i] {
			t.Errorf("seed %d: concurrent stream %s, solo %s", seeds[i], shared[i], solo[i])
		}
	}
}
