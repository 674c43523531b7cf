package bpu

import "frontsim/internal/isa"

// BTBEntry holds one identified branch. Shadow marks an entry pre-filled
// by the shadow-branch decoder rather than trained by a resolved branch;
// the flag reports once — Lookup clears it on the first hit — and training
// (Update) overwrites it, so ShadowHits counts distinct predictions a
// shadow fill enabled.
type BTBEntry struct {
	Target isa.Addr
	Class  isa.Class
	Shadow bool
}

type btbLine struct {
	lru   uint64
	entry BTBEntry
}

// BTB is a set-associative branch target buffer with LRU replacement.
type BTB struct {
	sets int
	ways int
	// keys holds one word per way, set-major: tag+1 when the way is valid,
	// 0 when not. The way scan reads only this dense array; lines holds
	// the rest of each way at the same index.
	keys  []uint64
	lines []btbLine
	clk   uint64

	lookups int64
	hits    int64
}

// NewBTB builds a BTB with the given geometry; sets must be a power of two.
func NewBTB(sets, ways int) *BTB {
	if sets <= 0 || sets&(sets-1) != 0 || ways <= 0 {
		panic("bpu: invalid BTB geometry")
	}
	return &BTB{sets: sets, ways: ways, keys: make([]uint64, sets*ways), lines: make([]btbLine, sets*ways)}
}

// find returns the set's base index in keys and lines, pc's key, and the
// index of the way holding it (-1 when absent).
func (b *BTB) find(pc isa.Addr) (base int, key uint64, at int) {
	base = int((uint64(pc)>>2)&uint64(b.sets-1)) * b.ways
	key = (uint64(pc)>>2)/uint64(b.sets) + 1
	for i, k := range b.keys[base : base+b.ways] {
		if k == key {
			return base, key, base + i
		}
	}
	return base, key, -1
}

// free returns the index of the set's first invalid way, or -1 when every
// way is valid.
func (b *BTB) free(base int) int {
	for i, k := range b.keys[base : base+b.ways] {
		if k == 0 {
			return base + i
		}
	}
	return -1
}

// Lookup returns the entry for pc if present.
func (b *BTB) Lookup(pc isa.Addr) (BTBEntry, bool) {
	b.lookups++
	_, _, at := b.find(pc)
	if at < 0 {
		return BTBEntry{}, false
	}
	w := &b.lines[at]
	b.clk++
	w.lru = b.clk
	b.hits++
	e := w.entry
	// A shadow-filled entry reports its provenance on the first demand
	// lookup only (the returned copy keeps the flag).
	w.entry.Shadow = false
	return e, true
}

// InstallShadow pre-fills the entry for a branch decoded from a fetched
// line's shadow bytes. Shadow fills are strictly opportunistic: an entry
// already present is left untouched (installed=false, dropped=false), and
// when every way holds a valid entry the fill is dropped rather than
// displacing trained state (dropped=true).
func (b *BTB) InstallShadow(pc, target isa.Addr, class isa.Class) (installed, dropped bool) {
	base, key, at := b.find(pc)
	if at >= 0 {
		return false, false
	}
	v := b.free(base)
	if v < 0 {
		return false, true
	}
	b.clk++
	b.keys[v] = key
	b.lines[v] = btbLine{lru: b.clk, entry: BTBEntry{Target: target, Class: class, Shadow: true}}
	return true, false
}

// Update installs or refreshes the entry for pc.
func (b *BTB) Update(pc, target isa.Addr, class isa.Class) {
	base, key, at := b.find(pc)
	b.clk++
	if at < 0 {
		// Victim selection: prefer an invalid way, else LRU.
		if at = b.free(base); at < 0 {
			at = base
			for i := base + 1; i < base+b.ways; i++ {
				if b.lines[i].lru < b.lines[at].lru {
					at = i
				}
			}
		}
		b.keys[at] = key
	}
	b.lines[at] = btbLine{lru: b.clk, entry: BTBEntry{Target: target, Class: class}}
}

// HitRate returns the lifetime hit rate.
func (b *BTB) HitRate() float64 {
	if b.lookups == 0 {
		return 0
	}
	return float64(b.hits) / float64(b.lookups)
}

// RAS is a fixed-depth return address stack. Overflow wraps (overwriting
// the oldest entry) and underflow returns ok=false, as in hardware.
type RAS struct {
	buf  []isa.Addr
	top  int // index of next push slot
	size int // live entries, capped at depth
}

// NewRAS builds a RAS with the given depth.
func NewRAS(depth int) *RAS {
	if depth <= 0 {
		panic("bpu: invalid RAS depth")
	}
	return &RAS{buf: make([]isa.Addr, depth)}
}

// Push records a return address.
func (r *RAS) Push(a isa.Addr) {
	r.buf[r.top] = a
	r.top = (r.top + 1) % len(r.buf)
	if r.size < len(r.buf) {
		r.size++
	}
}

// Pop returns the most recent return address.
func (r *RAS) Pop() (isa.Addr, bool) {
	if r.size == 0 {
		return 0, false
	}
	r.top = (r.top - 1 + len(r.buf)) % len(r.buf)
	r.size--
	return r.buf[r.top], true
}

// Depth returns the number of live entries.
func (r *RAS) Depth() int { return r.size }
