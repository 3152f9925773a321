// Package acl implements the Alive Corrupted Locations table of the paper
// (§III-C, Figure 3). Given a faulty trace and its matching fault-free
// trace, it performs value-aware taint propagation (the refinement of
// dynamic taint analysis described in §IV-B: tainted locations that are
// never used again, or that are overwritten by clean values, leave the set)
// and reports, after every dynamic instruction, how many corrupted locations
// are still alive — the series whose rise and fall reveals resilience
// computation patterns.
package acl

import (
	"fmt"
	"sort"
	"sync"

	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// EventKind classifies corruption lifecycle events.
type EventKind uint8

const (
	// Corrupted marks a location entering the corrupted set.
	Corrupted EventKind = iota
	// DeadOverwrite marks a corrupted location overwritten by a clean
	// value (resilience pattern 6, data overwriting).
	DeadOverwrite
	// DeadUnused marks a corrupted location after its last use: it will
	// never be referenced again (the dead-corrupted-locations pattern 1).
	DeadUnused
	// Masked marks an instruction that consumed a corrupted source but
	// produced the correct value (shift/truncation/compare masking).
	Masked
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case Corrupted:
		return "corrupted"
	case DeadOverwrite:
		return "dead-overwrite"
	case DeadUnused:
		return "dead-unused"
	case Masked:
		return "masked"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one corruption lifecycle event at a trace record index.
type Event struct {
	RecIndex int
	Loc      trace.Loc
	Kind     EventKind
	SID      int32
}

// Interval is one corruption lifetime of one location.
type Interval struct {
	Loc trace.Loc
	// Begin is the record index at which the location became corrupted.
	Begin int
	// End is the record index at which it died (overwrite or last use);
	// len(recs) if corrupted through the end of the trace.
	End int
	// ByOverwrite distinguishes pattern-6 deaths from dead-unused deaths.
	ByOverwrite bool
}

// Result is the full ACL analysis of one faulty run.
type Result struct {
	// Series[i] is the number of alive corrupted locations after record i
	// of the faulty trace.
	Series []int32
	// Events lists corruption/death/masking events in trace order.
	Events []Event
	// Intervals lists the corruption lifetimes.
	Intervals []Interval
	// InjectionIndex is the record index where the first value difference
	// between faulty and clean traces appears; -1 when the runs are
	// value-identical (the fault vanished without a trace).
	InjectionIndex int
	// DivergenceIndex is the first record index where control flow
	// diverges (SID mismatch), or -1. Value-aware taint stops there and
	// conservative taint continues.
	DivergenceIndex int
	// Peak is the maximum of Series.
	Peak int32
}

// MaxSeries returns the peak number of simultaneously alive corrupted
// locations.
func (r *Result) MaxSeries() int32 { return r.Peak }

// Options tune the analysis. The zero value is the paper's algorithm.
type Options struct {
	// SkipLiveness disables the last-use refinement: corrupted
	// locations then stay "alive" until overwritten, the conservative
	// plain-taint behaviour the paper's §IV-B explicitly improves on.
	// Exposed for the ablation bench called out in DESIGN.md.
	SkipLiveness bool
}

// diffPool holds finishSeries' sweep buffer, one record-length []int32 per
// analysis (~4 bytes per record); pooling reuses it across the faults a
// campaign worker analyzes. Nothing in a Result aliases it.
var diffPool = sync.Pool{New: func() any { return new([]int32) }}

// Analyze runs the ACL construction. faulty and clean must be full traces
// (TraceFull) of the same program, clean without a fault. The comparison is
// value-aware while control flow matches; after divergence, taint
// propagation falls back to classic (value-blind) tainting.
func Analyze(faulty, clean *trace.Trace) *Result {
	return AnalyzeWith(faulty, clean, Options{})
}

// AnalyzeWith is Analyze with explicit options. The analysis is one forward
// pass over the record columns of both traces. Liveness comes from the same
// pass: every source read of a tainted location is credited to its open
// interval as that interval's last read, so no per-location read index is
// built. An interval an overwrite did not close is open at the trace end,
// so its last read while tainted is its last read in (Begin, End).
func AnalyzeWith(faulty, clean *trace.Trace, opts Options) *Result {
	n := faulty.Recs.Len()
	res := &Result{
		Series:          make([]int32, n),
		InjectionIndex:  -1,
		DivergenceIndex: -1,
	}
	f, c := &faulty.Recs, &clean.Recs

	// Forward value-aware taint. lastRead[ii] is the last record after
	// Begin that read interval ii's location while it was open, or -1.
	tainted := map[trace.Loc]int{} // loc -> interval index (open)
	var lastRead []int
	openInterval := func(loc trace.Loc, at int, sid int32) {
		if _, already := tainted[loc]; already {
			return
		}
		res.Intervals = append(res.Intervals, Interval{Loc: loc, Begin: at, End: n})
		lastRead = append(lastRead, -1)
		tainted[loc] = len(res.Intervals) - 1
		res.Events = append(res.Events, Event{RecIndex: at, Loc: loc, Kind: Corrupted, SID: sid})
	}
	closeInterval := func(loc trace.Loc, at int, sid int32) {
		ii, ok := tainted[loc]
		if !ok {
			return
		}
		delete(tainted, loc)
		res.Intervals[ii].End = at
		res.Intervals[ii].ByOverwrite = true
		res.Events = append(res.Events, Event{RecIndex: at, Loc: loc, Kind: DeadOverwrite, SID: sid})
	}

	matched := min(c.Len(), n)
	for i := 0; i < n; i++ {
		sid := f.SID(i)
		valueAware := res.DivergenceIndex < 0 && i < matched
		if valueAware && c.SID(i) != sid {
			res.DivergenceIndex = i
			valueAware = false
		}

		// Detect corrupted sources. With value-awareness, a source whose
		// value differs from the clean run is corrupted even if taint has
		// not reached it yet (this is how memory-targeted faults surface:
		// the flipped cell first appears as a load source).
		anyTaintedSrc := false
		for s := 0; s < f.NSrc(i); s++ {
			loc := f.Src(i, s)
			if loc == 0 {
				continue
			}
			if ii, ok := tainted[loc]; ok {
				anyTaintedSrc = true
				if i > res.Intervals[ii].Begin {
					lastRead[ii] = i
				}
				continue
			}
			if valueAware && f.SrcVal(i, s) != c.SrcVal(i, s) {
				openInterval(loc, i, sid)
				if res.InjectionIndex < 0 {
					res.InjectionIndex = i
				}
				anyTaintedSrc = true
			}
		}

		// Conditional statements have no destination, but a tainted
		// condition that still takes the correct direction is the
		// conditional-statement resilience pattern (pattern 3).
		if f.Op(i) == ir.OpCondBr && anyTaintedSrc && valueAware && f.Taken(i) == c.Taken(i) {
			res.Events = append(res.Events, Event{RecIndex: i, Loc: f.Src(i, 0), Kind: Masked, SID: sid})
		}

		if dst := f.Dst(i); dst != 0 {
			_, dstTainted := tainted[dst]
			switch {
			case valueAware && f.DstVal(i) != c.DstVal(i):
				// Destination is wrong (whether or not taint explains it
				// — covers FaultDst injections directly).
				if res.InjectionIndex < 0 {
					res.InjectionIndex = i
				}
				if !dstTainted {
					openInterval(dst, i, sid)
				}
			case valueAware:
				// Correct value written. If the destination was tainted it
				// has been overwritten clean; if sources were tainted the
				// operation masked the error.
				if dstTainted {
					closeInterval(dst, i, sid)
				}
				if anyTaintedSrc {
					res.Events = append(res.Events, Event{RecIndex: i, Loc: dst, Kind: Masked, SID: sid})
				}
			case anyTaintedSrc:
				// Conservative taint after divergence.
				if !dstTainted {
					openInterval(dst, i, sid)
				}
			case dstTainted:
				closeInterval(dst, i, sid)
			}
		}
	}

	// Liveness refinement: an interval not closed by an overwrite actually
	// ends at the last read of the location within it; with no read at
	// all, the corrupted value was dead on arrival.
	if !opts.SkipLiveness {
		for ii := range res.Intervals {
			iv := &res.Intervals[ii]
			if iv.ByOverwrite {
				continue
			}
			last := lastRead[ii]
			if last < 0 {
				// Never read while corrupted: dead immediately after Begin.
				iv.End = min(iv.Begin+1, n)
				res.Events = append(res.Events, Event{RecIndex: iv.Begin, Loc: iv.Loc, Kind: DeadUnused, SID: f.SID(iv.Begin)})
				continue
			}
			if last+1 < iv.End {
				iv.End = last + 1
				res.Events = append(res.Events, Event{RecIndex: last, Loc: iv.Loc, Kind: DeadUnused, SID: f.SID(last)})
			}
		}
	}
	return finishSeries(res, n)
}

// finishSeries materializes Series/Peak from the intervals and sorts events.
// The sweep buffer comes from diffPool.
func finishSeries(res *Result, n int) *Result {
	buf := diffPool.Get().(*[]int32)
	defer diffPool.Put(buf)
	if cap(*buf) < n+1 {
		*buf = make([]int32, n+1)
	}
	diff := (*buf)[:n+1]
	clear(diff)
	for _, iv := range res.Intervals {
		if iv.Begin >= n || iv.End <= iv.Begin {
			continue
		}
		diff[iv.Begin]++
		if iv.End <= n {
			diff[iv.End]--
		}
	}
	var cur int32
	for i := 0; i < n; i++ {
		cur += diff[i]
		res.Series[i] = cur
		if cur > res.Peak {
			res.Peak = cur
		}
	}
	sort.SliceStable(res.Events, func(a, b int) bool { return res.Events[a].RecIndex < res.Events[b].RecIndex })
	return res
}

// SeriesInSpan extracts the ACL sub-series covering one region-instance span.
func (r *Result) SeriesInSpan(s trace.Span) []int32 {
	if s.Start < 0 || s.Start >= len(r.Series) {
		return nil
	}
	end := s.End
	if end > len(r.Series) {
		end = len(r.Series)
	}
	return r.Series[s.Start:end]
}

// TouchesSpan reports whether the corruption reached the span: either a
// corruption lifetime interval overlaps it, or the injection itself landed
// inside it (which counts even when the corrupted value died on arrival).
// This is the filter the per-fault pipeline applies to precomputed region
// spans to decide which instances need the full DDDG comparison.
func (r *Result) TouchesSpan(s trace.Span) bool {
	for _, iv := range r.Intervals {
		if iv.Begin < s.End && iv.End > s.Start {
			return true
		}
	}
	return r.InjectionIndex >= s.Start && r.InjectionIndex < s.End
}

// DropWithinSpan reports how much the ACL count decreased from its peak
// within the span to the span's end — the signature of patterns that kill
// corrupted locations (DCL, overwriting).
func (r *Result) DropWithinSpan(s trace.Span) int32 {
	ser := r.SeriesInSpan(s)
	if len(ser) == 0 {
		return 0
	}
	var peak int32
	for _, v := range ser {
		if v > peak {
			peak = v
		}
	}
	return peak - ser[len(ser)-1]
}

// MagPoint is one observation of a location's error magnitude over time.
type MagPoint struct {
	RecIndex int
	Correct  ir.Word
	Faulty   ir.Word
	ErrMag   float64
}

// TrackLocation returns the error-magnitude history of one location: each
// time the location is written in both runs at matching records, the
// relative error of the faulty value is recorded. This reproduces the
// Table II methodology (u[10][10][10] across mg3P invocations).
func TrackLocation(faulty, clean *trace.Trace, loc trace.Loc, t ir.Type, errMag func(correct, faulty ir.Word, typ ir.Type) float64) []MagPoint {
	n := faulty.Recs.Len()
	if clean.Recs.Len() < n {
		n = clean.Recs.Len()
	}
	f, c := &faulty.Recs, &clean.Recs
	var out []MagPoint
	for i := 0; i < n; i++ {
		if f.SID(i) != c.SID(i) {
			break // control-flow divergence; stop matching
		}
		if f.Dst(i) == loc && loc != 0 {
			cv, fv := c.DstVal(i), f.DstVal(i)
			out = append(out, MagPoint{RecIndex: i, Correct: cv, Faulty: fv, ErrMag: errMag(cv, fv, t)})
		}
	}
	return out
}
