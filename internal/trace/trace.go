// Package trace provides the dynamic instruction stream abstraction the
// simulator consumes, plus a compact binary on-disk format so synthetic
// workloads can be generated once and replayed (the ChampSim workflow the
// paper follows). A stream may come from a serialized trace file or be
// produced on the fly by a program executor; both implement Source.
package trace

import (
	"errors"
	"io"

	"frontsim/internal/isa"
)

// ErrEnd is returned by Source.Next when the stream is exhausted.
var ErrEnd = errors.New("trace: end of stream")

// Source yields dynamic instructions in program order. Implementations are
// not required to be safe for concurrent use; every simulator instance owns
// its source.
type Source interface {
	// Next returns the next dynamic instruction, or ErrEnd.
	Next() (isa.Instr, error)
}

// Resetter is implemented by sources that can rewind to the beginning,
// allowing one workload object to drive multiple simulation runs.
type Resetter interface {
	Reset()
}

// BlockSource is an optional Source refinement for streams that can yield
// a whole fetch block per call, saving the consumer one interface call and
// one instruction copy per instruction on the simulator's hottest path.
//
// NextBlock appends the next run of instructions to buf and returns the
// extended slice. The stream must be identical to repeated Next calls, and
// the run must end exactly where an incremental consumer peeking
// instruction-by-instruction would end it:
//
//   - after a branch-class instruction (inclusive), or
//   - when len grows by max instructions, or
//   - at stream end — reported as ErrEnd together with any non-branch
//     tail, exactly when the incremental consumer's lookahead past a
//     non-branch instruction would have hit the end. A run ending in a
//     branch reports nil; the ErrEnd surfaces on the next call.
//
// Instructions within a returned run are address-contiguous. Sources with
// possible discontinuities (serialized traces, arbitrary slices) must not
// implement BlockSource; consumers fall back to Next and their own
// boundary checks.
type BlockSource interface {
	Source
	NextBlock(buf []isa.Instr, max int) ([]isa.Instr, error)
}

// WarmRun is the reduction of one fetch run to what functional warming
// acts on: the run's extent, its memory and software-prefetch operations,
// and its terminating branch. No per-instruction record is built.
type WarmRun struct {
	// PC is the run's first instruction address and N its instruction
	// count, software prefetches and terminator included. The run is
	// address-contiguous: its instructions sit at PC, PC+InstrSize, ...
	PC isa.Addr
	N  int
	// Prefetches counts the run's software-prefetch instructions.
	Prefetches int
	// Ops holds the run's memory and software-prefetch instructions in
	// program order.
	Ops []WarmOp
	// Term is the run's final instruction when that is a branch; for a run
	// that ends without one it is the zero Instr (a non-branch class).
	Term isa.Instr
}

// WarmOp is one memory or software-prefetch instruction of a WarmRun.
type WarmOp struct {
	PC isa.Addr
	// Addr is a memory op's data address, or a software prefetch's
	// resolved target.
	Addr     isa.Addr
	Prefetch bool
}

// Reduce sets r to the reduction of blk, a run as BlockSource.NextBlock
// returns it. It is the adapter that brings any source's runs to a
// functional-warming consumer; WarmSource implementations must match it.
func (r *WarmRun) Reduce(blk []isa.Instr) {
	*r = WarmRun{N: len(blk), Ops: r.Ops[:0]}
	if len(blk) == 0 {
		return
	}
	r.PC = blk[0].PC
	for i := range blk {
		in := &blk[i]
		switch {
		case in.Class.IsMem():
			r.Ops = append(r.Ops, WarmOp{PC: in.PC, Addr: in.DataAddr})
		case in.Class == isa.ClassSwPrefetch:
			r.Ops = append(r.Ops, WarmOp{PC: in.PC, Addr: in.Target, Prefetch: true})
			r.Prefetches++
		}
	}
	if last := blk[len(blk)-1]; last.Class.IsBranch() {
		r.Term = last
	}
}

// WarmSource is an optional BlockSource refinement for sources that can
// hand functional warming a reduced run without building its
// instructions. NextWarmRun sets r to the reduction (Reduce) of exactly
// the run NextBlock(buf[:0], max) would have returned at this point of the
// stream, with the same error, and leaves the source where that NextBlock
// call would have left it. r.Ops is reused.
type WarmSource interface {
	BlockSource
	NextWarmRun(r *WarmRun, max int) error
}

// AsBlockSource reports whether src can yield whole fetch blocks,
// unwrapping Limit (whose block support depends on what it wraps).
func AsBlockSource(src Source) (BlockSource, bool) {
	switch s := src.(type) {
	case *Limit:
		if _, ok := AsBlockSource(s.src); ok {
			return s, true
		}
		return nil, false
	case BlockSource:
		return s, true
	}
	return nil, false
}

// Slice is an in-memory Source over a fixed instruction sequence.
type Slice struct {
	instrs []isa.Instr
	pos    int
}

// NewSlice wraps instrs (not copied) as a Source.
func NewSlice(instrs []isa.Instr) *Slice { return &Slice{instrs: instrs} }

// Next implements Source.
func (s *Slice) Next() (isa.Instr, error) {
	if s.pos >= len(s.instrs) {
		return isa.Instr{}, ErrEnd
	}
	in := s.instrs[s.pos]
	s.pos++
	return in, nil
}

// Reset implements Resetter.
func (s *Slice) Reset() { s.pos = 0 }

// Len returns the total number of instructions in the slice.
func (s *Slice) Len() int { return len(s.instrs) }

// Limit wraps a Source and stops after n instructions. It is used to run
// the paper's fixed-instruction-count simulations over unbounded executors.
type Limit struct {
	src  Source
	n    int64
	seen int64
}

// NewLimit returns a Source that yields at most n instructions from src.
func NewLimit(src Source, n int64) *Limit { return &Limit{src: src, n: n} }

// Next implements Source.
func (l *Limit) Next() (isa.Instr, error) {
	if l.seen >= l.n {
		return isa.Instr{}, ErrEnd
	}
	in, err := l.src.Next()
	if err != nil {
		return isa.Instr{}, err
	}
	l.seen++
	return in, nil
}

// NextBlock implements BlockSource by budget-chopping the wrapped stream.
// Callers must gate on AsBlockSource: the method is only valid when the
// wrapped source itself yields blocks.
func (l *Limit) NextBlock(buf []isa.Instr, max int) ([]isa.Instr, error) {
	if l.seen >= l.n {
		return buf, ErrEnd
	}
	m := max
	if rem := l.n - l.seen; int64(m) > rem {
		m = int(rem)
	}
	out, err := l.src.(BlockSource).NextBlock(buf, m)
	l.seen += int64(len(out) - len(buf))
	if err != nil {
		return out, err
	}
	// The budget ran out mid-block: an incremental consumer would have
	// peeked past the final non-branch instruction and seen the end now.
	// A branch-final or max-sized run ends naturally without the probe.
	if l.seen >= l.n && len(out)-len(buf) < max {
		if n := len(out); n == len(buf) || !out[n-1].Class.IsBranch() {
			return out, ErrEnd
		}
	}
	return out, nil
}

// Reset implements Resetter when the underlying source does.
func (l *Limit) Reset() {
	l.seen = 0
	if r, ok := l.src.(Resetter); ok {
		r.Reset()
	}
}

// Collect drains up to max instructions from src into a slice. max < 0
// drains everything.
func Collect(src Source, max int64) ([]isa.Instr, error) {
	var out []isa.Instr
	for max < 0 || int64(len(out)) < max {
		in, err := src.Next()
		if errors.Is(err, ErrEnd) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, in)
	}
	return out, nil
}

// Copy streams src into w until the source ends, returning the instruction
// count written.
func Copy(w *Writer, src Source) (int64, error) {
	var n int64
	for {
		in, err := src.Next()
		if errors.Is(err, ErrEnd) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := w.Write(in); err != nil {
			return n, err
		}
		n++
	}
}

// Stats summarizes a stream's composition; used by workload tuning tests
// and the tracegen tool's report.
type Stats struct {
	Instructions int64
	ByClass      [isa.NumClasses]int64
	TakenBranch  int64
	// UniqueLines is the number of distinct instruction cache lines touched
	// (the instruction footprint in 64-byte lines).
	UniqueLines int
}

// Footprint returns the instruction footprint in bytes.
func (s *Stats) Footprint() int64 { return int64(s.UniqueLines) * isa.LineSize }

// BranchFraction returns the fraction of instructions that are branches.
func (s *Stats) BranchFraction() float64 {
	if s.Instructions == 0 {
		return 0
	}
	var b int64
	for c := 0; c < isa.NumClasses; c++ {
		if isa.Class(c).IsBranch() {
			b += s.ByClass[c]
		}
	}
	return float64(b) / float64(s.Instructions)
}

// Measure consumes src and accumulates statistics.
func Measure(src Source) (Stats, error) {
	var st Stats
	lines := make(map[uint64]struct{})
	for {
		in, err := src.Next()
		if errors.Is(err, ErrEnd) {
			st.UniqueLines = len(lines)
			return st, nil
		}
		if err != nil {
			return st, err
		}
		st.Instructions++
		st.ByClass[in.Class]++
		if in.Class.IsBranch() && in.Taken {
			st.TakenBranch++
		}
		lines[in.PC.LineIndex()] = struct{}{}
	}
}

// readFull is a tiny helper shared by the codec.
func readFull(r io.Reader, buf []byte) error {
	_, err := io.ReadFull(r, buf)
	return err
}
