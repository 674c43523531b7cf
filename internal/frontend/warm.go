package frontend

import (
	"frontsim/internal/cache"
	"frontsim/internal/ftq"
	"frontsim/internal/isa"
	"frontsim/internal/trace"
)

// SetFill enables or disables the fill engine. Sampled simulation
// (internal/core) gates fill off while a measured window's tail drains out
// of the FTQ and ROB: delivery, dispatch and retirement continue, but no
// new blocks enter, so the window boundary is crisp. While gated, Cycle
// still releases due software prefetches and the FTQ still ticks; only the
// fill loop (and its stall accounting) is suspended.
func (f *Frontend) SetFill(enabled bool) { f.fillGated = !enabled }

// FillEnabled reports whether the fill engine is running (see SetFill).
func (f *Frontend) FillEnabled() bool { return !f.fillGated }

// WarmFunctional consumes up to n program (non-prefetch) instructions from
// the true-path source with no cycle accounting at all — the functional
// phase of SMARTS-style sampled simulation. Content state stays warm:
//
//   - instruction lines, the I-TLB and lower levels warm through the
//     hierarchy's Warm path (no timing, no counters);
//   - loads and stores warm the data path;
//   - the shadow decoder observes branches and pre-fills the BTB exactly
//     as detailed fetch would;
//   - branch predictors train on every block-ending branch (the predicted
//     path is ignored — there is no fill to steer);
//   - the hardware prefetcher observes fetches and its issued fills warm
//     content-only; software-prefetch instructions and trigger-table
//     entries likewise warm their targets immediately.
//
// Crucially the fill sequence counter does not advance: functionally
// consumed instructions never enter the FTQ or the back-end, so the
// front-end/back-end sequence lockstep (branch resolution is keyed by fill
// order) is preserved across the phase.
//
// It consumes whole runs, as the fill engine would push them, so it may
// overshoot n by at most one run; the return value is the exact
// program-instruction count consumed, which is less than n only when the
// source drained. now is the frozen simulation cycle, passed to the
// prefetcher for its timestamp bookkeeping.
//
// Each run arrives reduced (trace.WarmRun): no per-instruction record is
// built. Within a run the loop walks its lines in order and, inside each
// line, that line's memory and prefetch operations in order, which is the
// order a per-instruction walk would visit them. With a trigger table it
// walks the run PC by PC instead, so trigger warms keep their place too.
func (f *Frontend) WarmFunctional(n int64, now cache.Cycle) int64 {
	var consumed int64
	var lastLine isa.Addr = ^isa.Addr(0)
	for consumed < n {
		r := f.nextWarmRun()
		if r.N == 0 {
			break
		}
		ops := r.Ops
		end := r.PC + isa.Addr(r.N*isa.InstrSize)
		for line := r.PC.Line(); line < end; line += isa.LineSize {
			if line != lastLine {
				lastLine = line
				f.warmFetchLine(line, now)
			}
			next := min(line+isa.LineSize, end)
			if f.trigFilter == nil {
				for len(ops) > 0 && ops[0].PC < next {
					f.warmOp(ops[0])
					ops = ops[1:]
				}
				continue
			}
			for pc := max(line, r.PC); pc < next; pc += isa.InstrSize {
				if len(ops) > 0 && ops[0].PC == pc {
					f.warmOp(ops[0])
					ops = ops[1:]
				}
				h := trigHash(pc)
				if f.trigFilter[h>>6]&(1<<(h&63)) != 0 {
					for _, t := range f.triggers[pc] {
						f.mem.WarmPrefetchInstr(t)
					}
				}
			}
		}
		consumed += int64(r.N - r.Prefetches)
		if r.Term.Class.IsBranch() {
			if f.sd != nil {
				f.sd.Observe(r.Term)
			}
			f.bp.PredictAndTrain(r.Term)
		}
	}
	return consumed
}

// nextWarmRun reduces the next run of the true-path stream: straight from
// a WarmSource, otherwise through trace.WarmRun.Reduce over nextBlock's
// run, which covers slices, Limit-wrapped and serialized sources.
func (f *Frontend) nextWarmRun() *trace.WarmRun {
	r := &f.warmRun
	if f.wsrc == nil || f.srcDone {
		r.Reduce(f.nextBlock())
		return r
	}
	if err := f.wsrc.NextWarmRun(r, ftq.MaxBlockInstrs); err != nil {
		f.endSource(err)
	}
	return r
}

// warmOp warms one memory or software-prefetch operation.
func (f *Frontend) warmOp(op trace.WarmOp) {
	if op.Prefetch {
		f.mem.WarmPrefetchInstr(op.Addr)
	} else {
		f.mem.WarmData(op.Addr)
	}
}

// warmFetchLine is fetchLine's functional counterpart: content-only
// hierarchy warm, shadow decode, and prefetcher observation whose issued
// fills also warm content-only. The hit flag handed to the prefetcher is
// the line's presence before warming, matching what the detailed path's
// access would have seen.
func (f *Frontend) warmFetchLine(line isa.Addr, now cache.Cycle) {
	hit := f.mem.WarmInstr(line)
	if f.sd != nil {
		for _, sb := range f.sd.DecodeLine(line) {
			f.bp.ShadowInstall(sb)
		}
	}
	if f.cfg.Prefetcher != nil {
		f.cfg.Prefetcher.OnFetch(line, now, hit, func(l isa.Addr) {
			f.mem.WarmPrefetchInstr(l)
		})
	}
}
