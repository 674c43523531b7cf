package cache

import (
	"testing"
	"testing/quick"

	"frontsim/internal/isa"
	"frontsim/internal/xrand"
)

// fixedBackend returns now+latency for every request and records accesses.
type fixedBackend struct {
	latency  Cycle
	accesses []isa.Addr
}

func (f *fixedBackend) Access(lineAddr isa.Addr, now Cycle, kind AccessKind) Cycle {
	f.accesses = append(f.accesses, lineAddr)
	return now + f.latency
}

func smallLevel(t *testing.T, ways int, repl ReplKind, back Backend) *Level {
	t.Helper()
	cfg := LevelConfig{Name: "T", SizeBytes: 4 * ways * isa.LineSize, Ways: ways, HitLatency: 2, Repl: repl}
	l, err := NewLevel(cfg, back)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLevelConfigValidate(t *testing.T) {
	good := LevelConfig{Name: "ok", SizeBytes: 32 << 10, Ways: 8, HitLatency: 4}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []LevelConfig{
		{Name: "zero", SizeBytes: 0, Ways: 8},
		{Name: "noways", SizeBytes: 1024, Ways: 0},
		{Name: "nonpow2", SizeBytes: 3 * isa.LineSize * 2, Ways: 2}, // 3 sets
		{Name: "ragged", SizeBytes: 9 * isa.LineSize, Ways: 4},      // 2 sets would hold only 8 lines
		{Name: "neg", SizeBytes: 32 << 10, Ways: 8, HitLatency: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted invalid config", c.Name)
		}
	}
}

func TestMissThenHit(t *testing.T) {
	back := &fixedBackend{latency: 100}
	l := smallLevel(t, 2, ReplLRU, back)
	a := isa.Addr(0x1000)

	ready := l.Access(a, 0, Demand)
	if ready != 2+100 {
		t.Fatalf("miss ready = %d, want 102", ready)
	}
	// After fill completes, hits cost hit latency.
	ready = l.Access(a, 200, Demand)
	if ready != 202 {
		t.Fatalf("hit ready = %d, want 202", ready)
	}
	st := l.Stats()
	if st.Accesses != 2 || st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v", st)
	}
	if len(back.accesses) != 1 {
		t.Fatalf("backend saw %d accesses", len(back.accesses))
	}
}

func TestInflightMerge(t *testing.T) {
	back := &fixedBackend{latency: 100}
	l := smallLevel(t, 2, ReplLRU, back)
	a := isa.Addr(0x2000)

	first := l.Access(a, 0, Demand)
	second := l.Access(a, 10, Demand) // while in flight
	if second != first {
		t.Fatalf("merged access ready %d, want %d", second, first)
	}
	st := l.Stats()
	if st.MergedInflight != 1 {
		t.Fatalf("MergedInflight = %d", st.MergedInflight)
	}
	if len(back.accesses) != 1 {
		t.Fatalf("merge leaked to backend: %d accesses", len(back.accesses))
	}
}

func TestLRUEviction(t *testing.T) {
	back := &fixedBackend{latency: 10}
	l := smallLevel(t, 2, ReplLRU, back) // 4 sets, 2 ways
	// Three lines mapping to set 0 (set stride = 4 lines = 256B).
	a, b, c := isa.Addr(0), isa.Addr(256), isa.Addr(512)
	l.Access(a, 0, Demand)
	l.Access(b, 100, Demand)
	l.Access(a, 200, Demand) // a now MRU
	l.Access(c, 300, Demand) // must evict b
	if !l.Probe(a) || !l.Probe(c) {
		t.Fatal("a or c missing after eviction")
	}
	if l.Probe(b) {
		t.Fatal("LRU evicted the wrong line (b survived)")
	}
	if st := l.Stats(); st.Evictions != 1 {
		t.Fatalf("Evictions = %d", st.Evictions)
	}
}

func TestLRUNeverEvictsMRUProperty(t *testing.T) {
	// Property: after any access sequence, the most recently touched line
	// in a set is still present.
	f := func(seed uint64) bool {
		back := &fixedBackend{latency: 5}
		cfg := LevelConfig{Name: "P", SizeBytes: 4 * isa.LineSize, Ways: 4, HitLatency: 1, Repl: ReplLRU}
		l, err := NewLevel(cfg, back) // 1 set, 4 ways
		if err != nil {
			return false
		}
		r := xrand.New(seed)
		now := Cycle(0)
		var last isa.Addr
		for i := 0; i < 200; i++ {
			a := isa.Addr(r.Intn(16)) * isa.LineSize
			now += 100
			l.Access(a, now, Demand)
			last = a
			if !l.Probe(last) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSRRIPBasicEviction(t *testing.T) {
	back := &fixedBackend{latency: 5}
	l := smallLevel(t, 2, ReplSRRIP, back)
	a, b, c := isa.Addr(0), isa.Addr(256), isa.Addr(512)
	l.Access(a, 0, Demand)
	l.Access(a, 100, Demand) // promote a to rrpv 0
	l.Access(b, 200, Demand)
	l.Access(c, 300, Demand)
	if !l.Probe(a) {
		t.Fatal("SRRIP evicted the re-referenced line")
	}
	if !l.Probe(c) {
		t.Fatal("newly filled line missing")
	}
}

func TestRandomReplacementStillCaches(t *testing.T) {
	back := &fixedBackend{latency: 5}
	l := smallLevel(t, 2, ReplRandom, back)
	a := isa.Addr(0x40)
	l.Access(a, 0, Demand)
	if got := l.Access(a, 100, Demand); got != 102 {
		t.Fatalf("random-policy hit ready %d", got)
	}
}

func TestPrefetchStats(t *testing.T) {
	back := &fixedBackend{latency: 50}
	l := smallLevel(t, 2, ReplLRU, back)
	a := isa.Addr(0x3000)
	l.Access(a, 0, Prefetch)
	st := l.Stats()
	if st.PrefetchReqs != 1 || st.PrefetchFills != 1 || st.Accesses != 0 {
		t.Fatalf("prefetch stats %+v", st)
	}
	// Demand hit on the prefetched line counts as a useful prefetch once.
	l.Access(a, 100, Demand)
	l.Access(a, 200, Demand)
	st = l.Stats()
	if st.PrefetchHits != 1 {
		t.Fatalf("PrefetchHits = %d, want 1", st.PrefetchHits)
	}
	if st.Hits != 2 {
		t.Fatalf("Hits = %d", st.Hits)
	}
}

func TestPrefetchOnPresentLineIsCheap(t *testing.T) {
	back := &fixedBackend{latency: 50}
	l := smallLevel(t, 2, ReplLRU, back)
	a := isa.Addr(0x100)
	l.Access(a, 0, Demand)
	l.Access(a, 100, Prefetch)
	if len(back.accesses) != 1 {
		t.Fatal("redundant prefetch reached backend")
	}
}

func TestReadyAndProbe(t *testing.T) {
	back := &fixedBackend{latency: 30}
	l := smallLevel(t, 2, ReplLRU, back)
	a := isa.Addr(0x500)
	if l.Probe(a) {
		t.Fatal("Probe true before fill")
	}
	want := l.Access(a, 0, Demand)
	got, ok := l.Ready(a)
	if !ok || got != want {
		t.Fatalf("Ready = %d,%v want %d,true", got, ok, want)
	}
	if !l.Probe(a) {
		t.Fatal("Probe false after fill")
	}
	l.Flush()
	if l.Probe(a) {
		t.Fatal("Probe true after Flush")
	}
}

func TestAccessAlignsAddresses(t *testing.T) {
	back := &fixedBackend{latency: 10}
	l := smallLevel(t, 2, ReplLRU, back)
	l.Access(0x103, 0, Demand)
	if !l.Probe(0x100) || !l.Probe(0x13f) {
		t.Fatal("unaligned access did not cache the containing line")
	}
	if st := l.Stats(); st.Misses != 1 {
		t.Fatalf("Misses = %d", st.Misses)
	}
	// Second access in same line is a hit.
	l.Access(0x13c, 100, Demand)
	if st := l.Stats(); st.Hits != 1 {
		t.Fatalf("Hits = %d", st.Hits)
	}
}

func TestDRAMBandwidthQueueing(t *testing.T) {
	d, err := NewDRAM(DRAMConfig{Latency: 100, BusCycles: 10, Channels: 1})
	if err != nil {
		t.Fatal(err)
	}
	r1 := d.Access(0, 0, Demand)
	r2 := d.Access(64, 0, Demand) // queues behind r1's bus slot
	if r1 != 100 {
		t.Fatalf("r1 = %d", r1)
	}
	if r2 != 110 {
		t.Fatalf("r2 = %d, want 110 (queued)", r2)
	}
	if d.QueueingCycles() != 10 {
		t.Fatalf("QueueingCycles = %d", d.QueueingCycles())
	}
	if d.Accesses() != 2 {
		t.Fatalf("Accesses = %d", d.Accesses())
	}
}

func TestDRAMChannelsIndependent(t *testing.T) {
	d, _ := NewDRAM(DRAMConfig{Latency: 100, BusCycles: 10, Channels: 2})
	r1 := d.Access(0, 0, Demand)  // channel 0
	r2 := d.Access(64, 0, Demand) // channel 1
	if r1 != 100 || r2 != 100 {
		t.Fatalf("channel interference: %d %d", r1, r2)
	}
}

func TestHierarchyWiring(t *testing.T) {
	h, err := NewHierarchy(DefaultHierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	pc := isa.Addr(0x400000)
	// Cold fetch goes all the way to DRAM: 4+15+40+200 = 259.
	ready := h.FetchInstr(pc, 0)
	if ready != 259 {
		t.Fatalf("cold instruction fetch ready %d, want 259", ready)
	}
	// Warm fetch hits the L1-I.
	if got := h.FetchInstr(pc, 1000); got != 1004 {
		t.Fatalf("warm fetch ready %d, want 1004", got)
	}
	// Data access is independent of the L1-I but shares L2: load of the
	// same line hits L2's copy.
	if got := h.Load(pc, 2000); got != 2000+5+15 {
		t.Fatalf("load after instr fill ready %d, want L2 hit at %d", got, 2000+5+15)
	}
	if h.DRAM.Accesses() != 1 {
		t.Fatalf("DRAM accesses = %d, want 1", h.DRAM.Accesses())
	}
}

func TestHierarchyPrefetchHidesLatency(t *testing.T) {
	h, _ := NewHierarchy(DefaultHierarchyConfig())
	pc := isa.Addr(0x500000)
	h.PrefetchInstr(pc, 0)
	// Demand at 500 (after the ~259-cycle fill) is an L1-I hit.
	if got := h.FetchInstr(pc, 500); got != 504 {
		t.Fatalf("prefetched fetch ready %d, want 504", got)
	}
	if st := h.L1I.Stats(); st.PrefetchHits != 1 {
		t.Fatalf("L1I PrefetchHits = %d", st.PrefetchHits)
	}
}

func TestHierarchyResetStats(t *testing.T) {
	h, _ := NewHierarchy(DefaultHierarchyConfig())
	h.FetchInstr(0x400000, 0)
	h.Load(0x900000, 0)
	h.ResetStats()
	if h.L1I.Stats().Accesses != 0 || h.L1D.Stats().Accesses != 0 || h.DRAM.Accesses() != 0 {
		t.Fatal("stats not cleared")
	}
	// Contents stay warm.
	if got := h.FetchInstr(0x400000, 1000); got != 1004 {
		t.Fatalf("warm line lost on ResetStats: %d", got)
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("empty HitRate should be 0")
	}
	s.Accesses = 10
	s.Hits = 7
	if s.HitRate() != 0.7 {
		t.Fatalf("HitRate = %v", s.HitRate())
	}
}

func TestReplKindString(t *testing.T) {
	for _, k := range []ReplKind{ReplLRU, ReplSRRIP, ReplRandom, ReplKind(9)} {
		if k.String() == "" {
			t.Fatalf("empty name for %d", k)
		}
	}
}

func TestSetIndexCoversAllSets(t *testing.T) {
	back := &fixedBackend{latency: 1}
	cfg := LevelConfig{Name: "S", SizeBytes: 16 * isa.LineSize, Ways: 2, HitLatency: 1, Repl: ReplLRU} // 8 sets
	l, _ := NewLevel(cfg, back)
	seen := map[int]bool{}
	for i := 0; i < 8; i++ {
		seen[l.setIndex(isa.Addr(i*isa.LineSize))] = true
	}
	if len(seen) != 8 {
		t.Fatalf("consecutive lines map to %d distinct sets, want 8", len(seen))
	}
}

func TestDifferentTagsSameSetDoNotAlias(t *testing.T) {
	back := &fixedBackend{latency: 1}
	cfg := LevelConfig{Name: "A", SizeBytes: 2 * isa.LineSize, Ways: 2, HitLatency: 1, Repl: ReplLRU} // 1 set
	l, _ := NewLevel(cfg, back)
	a, b := isa.Addr(0), isa.Addr(1<<20)
	l.Access(a, 0, Demand)
	l.Access(b, 10, Demand)
	st := l.Stats()
	if st.Misses != 2 {
		t.Fatalf("tag aliasing: misses = %d, want 2", st.Misses)
	}
	if !l.Probe(a) || !l.Probe(b) {
		t.Fatal("both lines should be cached")
	}
}

func TestPrefetchPollutionAccounting(t *testing.T) {
	back := &fixedBackend{latency: 5}
	cfg := LevelConfig{Name: "P2", SizeBytes: 2 * isa.LineSize, Ways: 2, HitLatency: 1, Repl: ReplLRU} // 1 set
	l, _ := NewLevel(cfg, back)
	// Prefetch a line, never touch it, then force two demand fills that
	// evict it.
	l.Access(0x000, 0, Prefetch)
	l.Access(0x040, 10, Demand) // wait, different set? 1 set: all lines map here
	l.Access(0x080, 20, Demand) // evicts the LRU = prefetched 0x000
	st := l.Stats()
	if st.PrefetchEvictedUnused != 1 {
		t.Fatalf("PrefetchEvictedUnused = %d, want 1", st.PrefetchEvictedUnused)
	}
	if (&st).PrefetchAccuracy() != 0 {
		t.Fatalf("accuracy %v, want 0", (&st).PrefetchAccuracy())
	}
	// A used prefetch counts toward accuracy.
	l.Access(0x0c0, 30, Prefetch)
	l.Access(0x0c0, 40, Demand)
	st = l.Stats()
	if got := (&st).PrefetchAccuracy(); got != 0.5 {
		t.Fatalf("accuracy %v, want 0.5", got)
	}
}

func TestPrefetchAccuracyEmpty(t *testing.T) {
	var s Stats
	if s.PrefetchAccuracy() != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}
