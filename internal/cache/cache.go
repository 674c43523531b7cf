// Package cache implements the memory-side substrate: set-associative cache
// levels with pluggable replacement, in-flight-fill (MSHR-style) merging,
// prefetch fills, a bandwidth-limited DRAM model, and the multi-level
// hierarchy (L1-I, L1-D, unified L2, LLC, DRAM) from the paper's Table I.
//
// Timing model: an access at cycle `now` returns the cycle at which the
// requested line is available at the accessed level. Hits cost the level's
// hit latency; misses recurse into the next level and fill on return. A
// line whose fill is still in flight merges subsequent requests into the
// outstanding fill (this is what lets a deep FTQ alias many fetches to one
// L1-I access, the paper's §V-B effect).
package cache

import (
	"fmt"

	"frontsim/internal/isa"
	"frontsim/internal/obs"
	"frontsim/internal/xrand"
)

// Cycle is a simulation timestamp in core clock cycles.
type Cycle = int64

// AccessKind distinguishes demand from prefetch traffic for statistics.
type AccessKind uint8

const (
	// Demand is a fetch or load/store the core is waiting on.
	Demand AccessKind = iota
	// Prefetch is a speculative fill (hardware or software initiated).
	Prefetch
)

// ReplKind selects a replacement policy.
type ReplKind uint8

const (
	// ReplLRU is least-recently-used.
	ReplLRU ReplKind = iota
	// ReplSRRIP is 2-bit static re-reference interval prediction.
	ReplSRRIP
	// ReplRandom evicts a uniformly random way (ablation baseline).
	ReplRandom
)

// String names the policy.
func (k ReplKind) String() string {
	switch k {
	case ReplLRU:
		return "lru"
	case ReplSRRIP:
		return "srrip"
	case ReplRandom:
		return "random"
	}
	return fmt.Sprintf("repl(%d)", uint8(k))
}

// LevelConfig sizes one cache level.
type LevelConfig struct {
	Name string
	// SizeBytes and Ways determine the set count (SizeBytes / LineSize /
	// Ways), which must divide exactly and come out a power of two.
	SizeBytes int
	Ways      int
	// HitLatency is the cycles from access to data at this level.
	HitLatency Cycle
	Repl       ReplKind
}

// Sets returns the number of sets implied by the config.
func (c LevelConfig) Sets() int { return c.SizeBytes / isa.LineSize / c.Ways }

// Validate checks the configuration is realizable.
func (c LevelConfig) Validate() error {
	if c.Ways <= 0 || c.SizeBytes <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry", c.Name)
	}
	if c.SizeBytes%(isa.LineSize*c.Ways) != 0 {
		return fmt.Errorf("cache %s: size %d is not a multiple of %d-byte lines x %d ways",
			c.Name, c.SizeBytes, isa.LineSize, c.Ways)
	}
	sets := c.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d is not a positive power of two", c.Name, sets)
	}
	if c.HitLatency < 0 {
		return fmt.Errorf("cache %s: negative latency", c.Name)
	}
	return nil
}

// Stats counts one level's traffic.
type Stats struct {
	Accesses       int64 // demand accesses
	Hits           int64 // demand hits (including hits on in-flight fills)
	Misses         int64 // demand misses
	MergedInflight int64 // demand accesses merged into an outstanding fill
	PrefetchReqs   int64 // prefetch accesses
	PrefetchFills  int64 // lines filled by prefetch
	PrefetchHits   int64 // demand hits on prefetched, not-yet-used lines
	Evictions      int64
	// PrefetchEvictedUnused counts prefetched lines evicted before any
	// demand touched them — the pollution component of prefetch cost.
	PrefetchEvictedUnused int64
}

// PrefetchAccuracy returns the fraction of prefetched lines that saw a
// demand hit before eviction (0 when no prefetch resolved yet).
func (s *Stats) PrefetchAccuracy() float64 {
	resolved := s.PrefetchHits + s.PrefetchEvictedUnused
	if resolved == 0 {
		return 0
	}
	return float64(s.PrefetchHits) / float64(resolved)
}

// HitRate returns demand hit rate.
func (s *Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Backend is anything a Level can miss to.
type Backend interface {
	// Access requests lineAddr at cycle now and returns availability time.
	Access(lineAddr isa.Addr, now Cycle, kind AccessKind) Cycle
}

// Level is one set-associative cache level.
//
// Each set is one contiguous record in recs, so a lookup, a victim search
// and a fill all stay inside one short run of host memory. In words from
// the record's start, with W ways:
//
//	[0]                  MRU hint: the way last hit or filled
//	[1, keyOff)          prefetch marks, one bit per way: filled by a
//	                     prefetch and not yet demanded
//	[keyOff, +W)         keys: tag+1 when the way is valid, 0 when not
//	[readyOff, +W)       ready cycles: fill completion; the line is usable
//	                     for hits at and after this cycle
//	[replOff, +W)        replacement state: the LRU timestamp or the SRRIP
//	                     re-reference value, depending on cfg.Repl
//
// The MRU hint is purely a scan-order shortcut: instruction and data
// streams re-touch the same line in bursts, so checking it before the way
// scan turns most hits into a single compare. Hits, misses, victims and
// timing are identical with or without it.
type Level struct {
	cfg      LevelConfig
	sets     int
	shift    uint
	tagShift uint // when sets is a power of two, tagOf is a single shift
	mask     uint64
	recs     []uint64 // sets*stride words, one record per set
	stride   int
	keyOff   int
	readyOff int
	replOff  int
	lruClk   uint64
	next     Backend
	rng      *xrand.Rand
	sink     obs.Sink // nil when observation is off
	stats    Stats
}

// NewLevel builds a level whose misses go to next.
func NewLevel(cfg LevelConfig, next Backend) (*Level, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if next == nil {
		return nil, fmt.Errorf("cache %s: nil backend", cfg.Name)
	}
	sets := cfg.Sets()
	shift := uint(0)
	for 1<<shift < isa.LineSize {
		shift++
	}
	keyOff := 1 + (cfg.Ways+63)/64
	stride := keyOff + 3*cfg.Ways
	l := &Level{
		cfg:      cfg,
		sets:     sets,
		shift:    shift,
		mask:     uint64(sets - 1),
		recs:     make([]uint64, sets*stride),
		stride:   stride,
		keyOff:   keyOff,
		readyOff: keyOff + cfg.Ways,
		replOff:  keyOff + 2*cfg.Ways,
		next:     next,
		rng:      xrand.New(0xcafe ^ uint64(len(cfg.Name))),
	}
	if sets&(sets-1) == 0 {
		ts := shift
		for 1<<(ts-shift) < sets {
			ts++
		}
		l.tagShift = ts
	}
	return l, nil
}

// Config returns the level's configuration.
func (l *Level) Config() LevelConfig { return l.cfg }

// SetObserver attaches an observability sink (nil detaches). Observation
// is strictly read-only; access timing is identical with or without it.
func (l *Level) SetObserver(s obs.Sink) { l.sink = s }

// Stats returns a snapshot of the level's counters.
func (l *Level) Stats() Stats { return l.stats }

// ResetStats zeroes the counters (used to exclude warmup).
func (l *Level) ResetStats() { l.stats = Stats{} }

func (l *Level) setIndex(lineAddr isa.Addr) int {
	return int((uint64(lineAddr) >> l.shift) & l.mask)
}

func (l *Level) tagOf(lineAddr isa.Addr) uint64 {
	if l.tagShift != 0 {
		return uint64(lineAddr) >> l.tagShift
	}
	return uint64(lineAddr) >> l.shift / uint64(l.sets)
}

// record returns the set record lineAddr maps to and the key it would
// carry there.
func (l *Level) record(lineAddr isa.Addr) (rec []uint64, key uint64) {
	base := l.setIndex(lineAddr) * l.stride
	return l.recs[base : base+l.stride], l.tagOf(lineAddr) + 1
}

// mark returns the word of rec holding way wi's prefetch mark, and the
// mark's bit in it.
func mark(rec []uint64, wi int) (*uint64, uint64) {
	return &rec[1+wi>>6], uint64(1) << (wi & 63)
}

// find returns the way of rec holding key, or -1, checking the MRU hint
// first and moving it to a way the scan finds.
func (l *Level) find(rec []uint64, key uint64) int {
	keys := rec[l.keyOff:l.readyOff]
	if h := rec[0]; keys[h] == key {
		return int(h)
	}
	for i, k := range keys {
		if k == key {
			rec[0] = uint64(i)
			return i
		}
	}
	return -1
}

// lookup is find without the hint: no side effects at all.
func (l *Level) lookup(rec []uint64, key uint64) int {
	for i, k := range rec[l.keyOff:l.readyOff] {
		if k == key {
			return i
		}
	}
	return -1
}

// Access implements Backend. lineAddr must be line-aligned.
func (l *Level) Access(lineAddr isa.Addr, now Cycle, kind AccessKind) Cycle {
	lineAddr = lineAddr.Line()
	rec, key := l.record(lineAddr)

	if kind == Demand {
		l.stats.Accesses++
	} else {
		l.stats.PrefetchReqs++
	}

	if wi := l.find(rec, key); wi >= 0 {
		// Present (possibly still in flight).
		ready := Cycle(rec[l.readyOff+wi])
		if kind == Demand {
			l.stats.Hits++
			if pf, bit := mark(rec, wi); *pf&bit != 0 {
				l.stats.PrefetchHits++
				*pf &^= bit
			}
			if ready > now {
				l.stats.MergedInflight++
			}
		}
		l.touch(rec, wi)
		if ready > now {
			return ready
		}
		return now + l.cfg.HitLatency
	}

	// Miss: fetch from below, fill now with a future ready time (the way
	// doubles as the MSHR; later requests merge on it).
	if kind == Demand {
		l.stats.Misses++
	}
	ready := l.next.Access(lineAddr, now+l.cfg.HitLatency, kind)
	vi := l.victim(rec)
	pf, bit := mark(rec, vi)
	if rec[l.keyOff+vi] != 0 {
		l.stats.Evictions++
		if *pf&bit != 0 {
			l.stats.PrefetchEvictedUnused++
		}
	}
	l.install(rec, vi, key, ready)
	if kind == Prefetch {
		*pf |= bit
		l.stats.PrefetchFills++
		if l.sink != nil {
			l.sink.Event(obs.Event{Cycle: now, Kind: obs.EvPrefetchFill, Addr: uint64(lineAddr), Arg: ready - now})
		}
	}
	return ready
}

// install fills way vi of rec with key, completing at ready, as a demand
// fill: the caller sets the prefetch mark for a prefetch fill.
func (l *Level) install(rec []uint64, vi int, key uint64, ready Cycle) {
	rec[0] = uint64(vi)
	pf, bit := mark(rec, vi)
	*pf &^= bit
	rec[l.keyOff+vi] = key
	rec[l.readyOff+vi] = uint64(ready)
	s := &rec[l.replOff+vi]
	switch l.cfg.Repl {
	case ReplLRU, ReplRandom:
		l.lruClk++
		*s = l.lruClk
	case ReplSRRIP:
		*s = 2 // long re-reference interval on insertion
	}
}

// Probe reports whether the line is present (even in flight) without any
// side effects. Used by hardware prefetchers to filter redundant requests
// and by tests.
func (l *Level) Probe(lineAddr isa.Addr) bool {
	rec, key := l.record(lineAddr.Line())
	return l.lookup(rec, key) >= 0
}

// Ready returns the availability cycle of the line if present.
func (l *Level) Ready(lineAddr isa.Addr) (Cycle, bool) {
	rec, key := l.record(lineAddr.Line())
	if wi := l.lookup(rec, key); wi >= 0 {
		return Cycle(rec[l.readyOff+wi]), true
	}
	return 0, false
}

func (l *Level) touch(rec []uint64, wi int) {
	s := &rec[l.replOff+wi]
	switch l.cfg.Repl {
	case ReplLRU, ReplRandom:
		l.lruClk++
		*s = l.lruClk
	case ReplSRRIP:
		*s = 0
	}
}

func (l *Level) victim(rec []uint64) int {
	w := l.cfg.Ways
	keys := rec[l.keyOff:l.readyOff]
	// Prefer an invalid way. Fills take the first invalid way and only
	// Flush invalidates, all ways at once, so the invalid ways are always
	// a suffix of the set: the set has one exactly when its last way is
	// invalid.
	if keys[w-1] == 0 {
		for i, k := range keys {
			if k == 0 {
				return i
			}
		}
	}
	repl := rec[l.replOff : l.replOff+w]
	switch l.cfg.Repl {
	case ReplRandom:
		return l.rng.Intn(w)
	case ReplSRRIP:
		// Equivalent to the textbook search-then-age loop: values stay in
		// [0,3], so the victim is the first way holding the maximum, and
		// every way ages by 3 minus that maximum.
		v, m := 0, repl[0]
		for i, r := range repl {
			if r > m {
				v, m = i, r
			}
		}
		if m < 3 {
			d := 3 - m
			for i := range repl {
				repl[i] += d
			}
		}
		return v
	default: // LRU
		v, m := 0, repl[0]
		for i, r := range repl {
			if r < m {
				v, m = i, r
			}
		}
		return v
	}
}

// Flush invalidates every line (used between experiment phases).
func (l *Level) Flush() { clear(l.recs) }

// DRAMConfig models main memory timing.
type DRAMConfig struct {
	// Latency is the unloaded access latency in core cycles.
	Latency Cycle
	// BusCycles is the channel occupancy per line transfer; back-to-back
	// requests queue behind each other at this rate.
	BusCycles Cycle
	// Channels is the number of independent channels.
	Channels int
}

// Validate checks the DRAM parameters.
func (c DRAMConfig) Validate() error {
	if c.Latency <= 0 || c.BusCycles <= 0 || c.Channels <= 0 {
		return fmt.Errorf("dram: non-positive parameter %+v", c)
	}
	return nil
}

// DRAM is the bottom of the hierarchy: fixed latency plus a per-channel
// bandwidth queue.
type DRAM struct {
	cfg      DRAMConfig
	nextFree []Cycle
	accesses int64
	busy     int64 // cycles requests spent queued (congestion measure)
}

// NewDRAM builds the memory model.
func NewDRAM(cfg DRAMConfig) (*DRAM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &DRAM{cfg: cfg, nextFree: make([]Cycle, cfg.Channels)}, nil
}

// Access implements Backend.
func (d *DRAM) Access(lineAddr isa.Addr, now Cycle, kind AccessKind) Cycle {
	ch := int(lineAddr.LineIndex()) % d.cfg.Channels
	start := now
	if d.nextFree[ch] > start {
		d.busy += int64(d.nextFree[ch] - start)
		start = d.nextFree[ch]
	}
	d.nextFree[ch] = start + d.cfg.BusCycles
	d.accesses++
	return start + d.cfg.Latency
}

// Config returns the DRAM parameters.
func (d *DRAM) Config() DRAMConfig { return d.cfg }

// Accesses returns the total number of DRAM requests.
func (d *DRAM) Accesses() int64 { return d.accesses }

// QueueingCycles returns total cycles requests waited for a channel.
func (d *DRAM) QueueingCycles() int64 { return d.busy }

// ResetStats zeroes the DRAM counters (channel state is retained).
func (d *DRAM) ResetStats() { d.accesses = 0; d.busy = 0 }
