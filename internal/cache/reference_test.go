package cache

import (
	"fmt"
	"testing"

	"frontsim/internal/isa"
	"frontsim/internal/xrand"
)

// refLine is one way of refLevel: tag, valid bit, fill time, prefetch mark
// and replacement state kept together in a per-way struct.
type refLine struct {
	tag      uint64
	valid    bool
	ready    Cycle
	prefetch bool
	repl     uint64 // LRU timestamp or SRRIP re-reference value
}

// refLevel is the test oracle for Level: the same cache semantics written
// the plain way — one struct per way, a full way scan on every lookup, and
// the textbook SRRIP search-then-age loop. Level's packed layout, hit hint
// and one-pass victim search must be indistinguishable from it.
type refLevel struct {
	cfg   LevelConfig
	sets  int
	lines []refLine
	clk   uint64
	next  Backend
	rng   *xrand.Rand
	stats Stats
}

func newRefLevel(cfg LevelConfig, next Backend) *refLevel {
	return &refLevel{
		cfg:   cfg,
		sets:  cfg.Sets(),
		lines: make([]refLine, cfg.Sets()*cfg.Ways),
		next:  next,
		rng:   xrand.New(0xcafe ^ uint64(len(cfg.Name))),
	}
}

func (r *refLevel) lookup(lineAddr isa.Addr) (set []refLine, tag uint64, way int) {
	idx := lineAddr.LineIndex()
	s := int(idx % uint64(r.sets))
	set = r.lines[s*r.cfg.Ways : (s+1)*r.cfg.Ways]
	tag = idx / uint64(r.sets)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return set, tag, i
		}
	}
	return set, tag, -1
}

func (r *refLevel) touch(w *refLine) {
	if r.cfg.Repl == ReplSRRIP {
		w.repl = 0
		return
	}
	r.clk++
	w.repl = r.clk
}

func (r *refLevel) fill(w *refLine) {
	if r.cfg.Repl == ReplSRRIP {
		w.repl = 2
		return
	}
	r.clk++
	w.repl = r.clk
}

func (r *refLevel) victim(set []refLine) int {
	for i := range set {
		if !set[i].valid {
			return i
		}
	}
	switch r.cfg.Repl {
	case ReplRandom:
		return r.rng.Intn(len(set))
	case ReplSRRIP:
		for {
			for i := range set {
				if set[i].repl >= 3 {
					return i
				}
			}
			for i := range set {
				set[i].repl++
			}
		}
	default:
		v := 0
		for i := range set {
			if set[i].repl < set[v].repl {
				v = i
			}
		}
		return v
	}
}

func (r *refLevel) Access(lineAddr isa.Addr, now Cycle, kind AccessKind) Cycle {
	lineAddr = lineAddr.Line()
	if kind == Demand {
		r.stats.Accesses++
	} else {
		r.stats.PrefetchReqs++
	}
	set, tag, wi := r.lookup(lineAddr)
	if wi >= 0 {
		w := &set[wi]
		if kind == Demand {
			r.stats.Hits++
			if w.prefetch {
				r.stats.PrefetchHits++
				w.prefetch = false
			}
			if w.ready > now {
				r.stats.MergedInflight++
			}
		}
		r.touch(w)
		if w.ready > now {
			return w.ready
		}
		return now + r.cfg.HitLatency
	}
	if kind == Demand {
		r.stats.Misses++
	}
	ready := r.next.Access(lineAddr, now+r.cfg.HitLatency, kind)
	v := &set[r.victim(set)]
	if v.valid {
		r.stats.Evictions++
		if v.prefetch {
			r.stats.PrefetchEvictedUnused++
		}
	}
	*v = refLine{tag: tag, valid: true, ready: ready, prefetch: kind == Prefetch}
	if kind == Prefetch {
		r.stats.PrefetchFills++
	}
	r.fill(v)
	return ready
}

func (r *refLevel) Warm(lineAddr isa.Addr) bool {
	lineAddr = lineAddr.Line()
	set, tag, wi := r.lookup(lineAddr)
	if wi >= 0 {
		set[wi].prefetch = false
		r.touch(&set[wi])
		return true
	}
	if nl, ok := r.next.(*refLevel); ok {
		nl.Warm(lineAddr)
	}
	v := &set[r.victim(set)]
	*v = refLine{tag: tag, valid: true}
	r.fill(v)
	return false
}

func (r *refLevel) Probe(lineAddr isa.Addr) bool {
	_, _, wi := r.lookup(lineAddr.Line())
	return wi >= 0
}

func (r *refLevel) Ready(lineAddr isa.Addr) (Cycle, bool) {
	set, _, wi := r.lookup(lineAddr.Line())
	if wi < 0 {
		return 0, false
	}
	return set[wi].ready, true
}

func (r *refLevel) Flush() {
	for i := range r.lines {
		r.lines[i] = refLine{}
	}
}

// jitterBackend is a deterministic memory below the levels under test: its
// latency varies with the address, so fills complete out of order, and it
// logs every request it sees.
type jitterBackend struct {
	log []string
}

func (j *jitterBackend) Access(lineAddr isa.Addr, now Cycle, kind AccessKind) Cycle {
	j.log = append(j.log, fmt.Sprintf("%#x@%d/%d", uint64(lineAddr), now, kind))
	return now + 50 + Cycle(lineAddr.LineIndex()%7)*10
}

// TestLevelAgainstReference drives a two-level Level chain and a refLevel
// chain of the same geometry through one random sequence of demand and
// prefetch accesses, warms, probes, ready queries and rare flushes, and
// requires identical return values, Stats and backend traffic after every
// call. The address range is a few times each level's capacity, so sets
// fill, hit, evict and refill throughout; misaligned addresses check line
// alignment.
func TestLevelAgainstReference(t *testing.T) {
	for _, repl := range []ReplKind{ReplLRU, ReplSRRIP, ReplRandom} {
		for _, ways := range []int{1, 2, 8, 12, 16, 80} {
			t.Run(fmt.Sprintf("%s/%d", repl, ways), func(t *testing.T) {
				l1cfg := LevelConfig{Name: "A", SizeBytes: 4 * ways * isa.LineSize, Ways: ways, HitLatency: 2, Repl: repl}
				l2cfg := LevelConfig{Name: "BB", SizeBytes: 8 * ways * isa.LineSize, Ways: ways, HitLatency: 9, Repl: repl}
				back, refBack := &jitterBackend{}, &jitterBackend{}
				l2, err := NewLevel(l2cfg, back)
				if err != nil {
					t.Fatal(err)
				}
				l1, err := NewLevel(l1cfg, l2)
				if err != nil {
					t.Fatal(err)
				}
				r2 := newRefLevel(l2cfg, refBack)
				r1 := newRefLevel(l1cfg, r2)

				rng := xrand.New(uint64(ways)*31 + uint64(repl))
				span := uint64(24 * ways)
				var now Cycle
				for op := 0; op < 6000; op++ {
					now += Cycle(rng.Uint64n(12))
					a := isa.Addr(rng.Uint64n(span)*isa.LineSize + rng.Uint64n(isa.LineSize))
					var got, want string
					switch k := rng.Uint64n(20); {
					case k < 8:
						got = fmt.Sprint(l1.Access(a, now, Demand))
						want = fmt.Sprint(r1.Access(a, now, Demand))
					case k < 11:
						got = fmt.Sprint(l1.Access(a, now, Prefetch))
						want = fmt.Sprint(r1.Access(a, now, Prefetch))
					case k < 15:
						got = fmt.Sprint(l1.Warm(a))
						want = fmt.Sprint(r1.Warm(a))
					case k < 17:
						got = fmt.Sprint(l1.Probe(a), l2.Probe(a))
						want = fmt.Sprint(r1.Probe(a), r2.Probe(a))
					case k < 19:
						c1, ok1 := l1.Ready(a)
						c2, ok2 := l2.Ready(a)
						got = fmt.Sprint(c1, ok1, c2, ok2)
						c1, ok1 = r1.Ready(a)
						c2, ok2 = r2.Ready(a)
						want = fmt.Sprint(c1, ok1, c2, ok2)
					default:
						if rng.Uint64n(100) == 0 {
							l1.Flush()
							r1.Flush()
						}
					}
					if got != want {
						t.Fatalf("op %d addr %#x: got %s, want %s", op, uint64(a), got, want)
					}
					if l1.Stats() != r1.stats || l2.Stats() != r2.stats {
						t.Fatalf("op %d: stats diverged\nL1 %+v\nref %+v\nL2 %+v\nref %+v",
							op, l1.Stats(), r1.stats, l2.Stats(), r2.stats)
					}
					if len(back.log) != len(refBack.log) {
						t.Fatalf("op %d: backend saw %d requests, reference %d", op, len(back.log), len(refBack.log))
					}
				}
				for i := range back.log {
					if back.log[i] != refBack.log[i] {
						t.Fatalf("backend request %d: %s, reference %s", i, back.log[i], refBack.log[i])
					}
				}
			})
		}
	}
}
