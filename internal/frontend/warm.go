package frontend

import (
	"frontsim/internal/cache"
	"frontsim/internal/isa"
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
// It consumes whole basic blocks, so it may overshoot n by at most one
// block; the return value is the exact program-instruction count consumed,
// which is less than n only when the source drained. now is the frozen
// simulation cycle, passed to the prefetcher for its timestamp bookkeeping.
func (f *Frontend) WarmFunctional(n int64, now cache.Cycle) int64 {
	var consumed int64
	var lastLine isa.Addr = ^isa.Addr(0)
	for consumed < n {
		blk := f.nextBlock()
		if len(blk) == 0 {
			break
		}
		for _, in := range blk {
			if line := in.PC.Line(); line != lastLine {
				lastLine = line
				f.warmFetchLine(line, now)
			}
			switch {
			case in.Class.IsMem():
				f.mem.WarmData(in.DataAddr)
			case in.Class == isa.ClassSwPrefetch:
				f.mem.WarmPrefetchInstr(in.Target)
			}
			if f.trigFilter != nil {
				h := trigHash(in.PC)
				if f.trigFilter[h>>6]&(1<<(h&63)) != 0 {
					for _, t := range f.triggers[in.PC] {
						f.mem.WarmPrefetchInstr(t)
					}
				}
			}
			if in.Class != isa.ClassSwPrefetch {
				consumed++
			}
		}
		last := blk[len(blk)-1]
		if last.Class.IsBranch() {
			if f.sd != nil {
				f.sd.Observe(last)
			}
			f.bp.PredictAndTrain(last)
		}
	}
	return consumed
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
