package bpu

import (
	"fmt"
	"testing"

	"frontsim/internal/isa"
	"frontsim/internal/xrand"
)

// refBTBLine is one way of refBTB: tag, valid bit, recency and entry kept
// together in a per-way struct.
type refBTBLine struct {
	tag   uint64
	valid bool
	lru   uint64
	entry BTBEntry
}

// refBTB is the test oracle for BTB: the same LRU set-associative buffer
// written the plain way, one struct per way and a full way scan per call.
type refBTB struct {
	sets, ways    int
	lines         []refBTBLine
	clk           uint64
	lookups, hits int64
}

func (b *refBTB) set(pc isa.Addr) ([]refBTBLine, uint64) {
	i := int((uint64(pc) >> 2) % uint64(b.sets))
	return b.lines[i*b.ways : (i+1)*b.ways], (uint64(pc) >> 2) / uint64(b.sets)
}

func (b *refBTB) Lookup(pc isa.Addr) (BTBEntry, bool) {
	b.lookups++
	set, tag := b.set(pc)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			b.clk++
			set[i].lru = b.clk
			b.hits++
			e := set[i].entry
			set[i].entry.Shadow = false
			return e, true
		}
	}
	return BTBEntry{}, false
}

func (b *refBTB) InstallShadow(pc, target isa.Addr, class isa.Class) (installed, dropped bool) {
	set, tag := b.set(pc)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return false, false
		}
	}
	for i := range set {
		if !set[i].valid {
			b.clk++
			set[i] = refBTBLine{tag: tag, valid: true, lru: b.clk,
				entry: BTBEntry{Target: target, Class: class, Shadow: true}}
			return true, false
		}
	}
	return false, true
}

func (b *refBTB) Update(pc, target isa.Addr, class isa.Class) {
	set, tag := b.set(pc)
	b.clk++
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].entry = BTBEntry{Target: target, Class: class}
			set[i].lru = b.clk
			return
		}
	}
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := range set {
			if set[i].lru < set[victim].lru {
				victim = i
			}
		}
	}
	set[victim] = refBTBLine{tag: tag, valid: true, lru: b.clk, entry: BTBEntry{Target: target, Class: class}}
}

// TestBTBAgainstReference drives a BTB and refBTB through one random
// sequence of lookups, trained updates and shadow installs and requires
// identical results and hit rates after every call. Branch PCs come from
// a range a few times the capacity, so sets fill, hit, evict and drop
// shadow fills throughout.
func TestBTBAgainstReference(t *testing.T) {
	classes := []isa.Class{isa.ClassBranch, isa.ClassJump, isa.ClassCall, isa.ClassReturn, isa.ClassIndirect}
	for _, geo := range [][2]int{{1, 1}, {4, 1}, {8, 2}, {4, 4}, {2, 16}, {1, 80}} {
		sets, ways := geo[0], geo[1]
		t.Run(fmt.Sprintf("%dx%d", sets, ways), func(t *testing.T) {
			btb := NewBTB(sets, ways)
			ref := &refBTB{sets: sets, ways: ways, lines: make([]refBTBLine, sets*ways)}
			rng := xrand.New(uint64(sets*131 + ways))
			span := uint64(3 * sets * ways)
			for op := 0; op < 8000; op++ {
				pc := isa.Addr(0x40_0000 + rng.Uint64n(span)*4)
				target := isa.Addr(rng.Uint64n(1 << 20))
				class := classes[rng.Uint64n(uint64(len(classes)))]
				var got, want string
				switch k := rng.Uint64n(10); {
				case k < 5:
					e, ok := btb.Lookup(pc)
					got = fmt.Sprint(e, ok)
					e, ok = ref.Lookup(pc)
					want = fmt.Sprint(e, ok)
				case k < 8:
					btb.Update(pc, target, class)
					ref.Update(pc, target, class)
				default:
					inst, drop := btb.InstallShadow(pc, target, class)
					got = fmt.Sprint(inst, drop)
					inst, drop = ref.InstallShadow(pc, target, class)
					want = fmt.Sprint(inst, drop)
				}
				if got != want {
					t.Fatalf("op %d pc %#x: got %s, want %s", op, uint64(pc), got, want)
				}
				if btb.lookups != ref.lookups || btb.hits != ref.hits {
					t.Fatalf("op %d: lookups/hits %d/%d, reference %d/%d",
						op, btb.lookups, btb.hits, ref.lookups, ref.hits)
				}
			}
		})
	}
}
