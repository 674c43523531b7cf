package cache

import (
	"testing"

	"frontsim/internal/isa"
)

// counters is every statistic a warm must leave alone.
type counters struct {
	l1i, l1d, l2, llc Stats
	dram, queueing    int64
	tlb               TLBStats
}

func snapshot(h *Hierarchy) counters {
	return counters{
		l1i: h.L1I.Stats(), l1d: h.L1D.Stats(), l2: h.L2.Stats(), llc: h.LLC.Stats(),
		dram: h.DRAM.Accesses(), queueing: h.DRAM.QueueingCycles(), tlb: h.ITLBStats(),
	}
}

// busyHierarchy returns a Table I hierarchy (with the I-TLB when itlb is
// set) that has already seen detailed traffic, so every counter, the DRAM
// queue and some contents are non-zero before a warm runs.
func busyHierarchy(t *testing.T, itlb ITLBConfig) *Hierarchy {
	t.Helper()
	cfg := DefaultHierarchyConfig()
	cfg.ITLB = itlb
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		a := isa.Addr(0x10_0000 + i*isa.LineSize)
		h.FetchInstr(a, 0)
		h.PrefetchInstr(a+0x1000, 0)
		h.Load(a+0x20_0000, 0)
	}
	if h.DRAM.QueueingCycles() == 0 {
		t.Fatal("set-up left the DRAM queue idle")
	}
	return h
}

// requireQuiet fails when any counter moved since before.
func requireQuiet(t *testing.T, h *Hierarchy, before counters, what string) {
	t.Helper()
	if after := snapshot(h); after != before {
		t.Fatalf("%s moved counters:\nbefore %+v\nafter  %+v", what, before, after)
	}
}

// requireFilled fails unless every listed level holds addr ready at cycle 0.
func requireFilled(t *testing.T, addr isa.Addr, levels ...*Level) {
	t.Helper()
	for _, l := range levels {
		if r, ok := l.Ready(addr); !ok || r != 0 {
			t.Fatalf("%s: Ready(%#x) = %d, %v; want 0, true", l.Config().Name, uint64(addr), r, ok)
		}
	}
}

func TestLevelWarm(t *testing.T) {
	h := busyHierarchy(t, ITLBConfig{})
	before := snapshot(h)

	// A cold line misses every level: it fills at L1-I, L2 and the LLC,
	// ready at once, and reports the Probe taken before it.
	a := isa.Addr(0x70_0000)
	if probe, hit := h.L1I.Probe(a), h.L1I.Warm(a+3); hit != probe || hit {
		t.Fatalf("cold warm reported %v, probe before %v", hit, probe)
	}
	requireFilled(t, a, h.L1I, h.L2, h.LLC)
	if h.L1D.Probe(a) {
		t.Fatal("an L1-I warm filled the L1-D")
	}
	if probe, hit := h.L1I.Probe(a), h.L1I.Warm(a); hit != probe || !hit {
		t.Fatalf("second warm reported %v, probe before %v", hit, probe)
	}
	requireQuiet(t, h, before, "Level.Warm")

	// A line the L2 already holds stops the recursion there: the L2 copy
	// keeps its fill time.
	b := isa.Addr(0x30_0000) // loaded through the L1-D in set-up
	l2Ready, ok := h.L2.Ready(b)
	if !ok || l2Ready == 0 {
		t.Fatalf("set-up left L2 Ready(%#x) = %d, %v", uint64(b), l2Ready, ok)
	}
	if h.L1I.Warm(b) {
		t.Fatal("warm of a line absent from the L1-I reported a hit")
	}
	requireFilled(t, b, h.L1I)
	if r, _ := h.L2.Ready(b); r != l2Ready {
		t.Fatalf("L2 copy's ready moved from %d to %d", l2Ready, r)
	}
	requireQuiet(t, h, before, "Level.Warm")
}

func TestLevelWarmClearsPrefetchMark(t *testing.T) {
	back := &fixedBackend{latency: 10}
	l := smallLevel(t, 2, ReplLRU, back)
	a := isa.Addr(0x4000)
	l.Access(a, 0, Prefetch)
	if !l.Warm(a) {
		t.Fatal("warm missed a prefetched line")
	}
	l.Access(a, 100, Demand)
	if st := l.Stats(); st.Hits != 1 || st.PrefetchHits != 0 {
		t.Fatalf("demand after warm: %+v; want a plain hit", st)
	}
}

func TestHierarchyWarmInstr(t *testing.T) {
	h := busyHierarchy(t, DefaultITLBConfig())
	before := snapshot(h)
	pc := isa.Addr(0x50_0000)
	if h.ITLB.Resident(pc) {
		t.Fatal("set-up translated the test page")
	}
	if probe, hit := h.L1I.Probe(pc), h.WarmInstr(pc); hit != probe || hit {
		t.Fatalf("cold WarmInstr reported %v, probe before %v", hit, probe)
	}
	requireFilled(t, pc.Line(), h.L1I, h.L2, h.LLC)
	if !h.ITLB.Resident(pc) {
		t.Fatal("WarmInstr left the page untranslated")
	}
	if probe, hit := h.L1I.Probe(pc), h.WarmInstr(pc); hit != probe || !hit {
		t.Fatalf("second WarmInstr reported %v, probe before %v", hit, probe)
	}
	requireQuiet(t, h, before, "WarmInstr")
}

func TestHierarchyWarmData(t *testing.T) {
	h := busyHierarchy(t, ITLBConfig{})
	before := snapshot(h)
	addr := isa.Addr(0x90_0010)
	h.WarmData(addr)
	requireFilled(t, addr.Line(), h.L1D, h.L2, h.LLC)
	if h.L1I.Probe(addr) {
		t.Fatal("WarmData filled the L1-I")
	}
	requireQuiet(t, h, before, "WarmData")
}

func TestHierarchyWarmPrefetchInstr(t *testing.T) {
	t.Run("no-itlb", func(t *testing.T) {
		h := busyHierarchy(t, ITLBConfig{})
		before := snapshot(h)
		pc := isa.Addr(0x60_0000)
		h.WarmPrefetchInstr(pc)
		requireFilled(t, pc, h.L1I, h.L2, h.LLC)
		requireQuiet(t, h, before, "WarmPrefetchInstr")
	})
	t.Run("drop", func(t *testing.T) {
		h := busyHierarchy(t, DefaultITLBConfig())
		before := snapshot(h)
		pc := isa.Addr(0x60_0000)
		h.WarmPrefetchInstr(pc) // page not resident: dropped
		if h.L1I.Probe(pc) || h.L2.Probe(pc) || h.ITLB.Resident(pc) {
			t.Fatal("a dropped warm prefetch filled the L1-I, the L2 or the TLB")
		}
		h.WarmInstr(pc) // translate the page
		next := pc + isa.LineSize
		h.WarmPrefetchInstr(next)
		requireFilled(t, next, h.L1I, h.L2, h.LLC)
		requireQuiet(t, h, before, "WarmPrefetchInstr")
	})
	t.Run("walk", func(t *testing.T) {
		itlb := DefaultITLBConfig()
		itlb.DropPrefetchOnMiss = false
		h := busyHierarchy(t, itlb)
		before := snapshot(h)
		pc := isa.Addr(0x60_0000)
		h.WarmPrefetchInstr(pc)
		requireFilled(t, pc, h.L1I, h.L2, h.LLC)
		if !h.ITLB.Resident(pc) {
			t.Fatal("a walking warm prefetch left the page untranslated")
		}
		requireQuiet(t, h, before, "WarmPrefetchInstr")
	})
}
