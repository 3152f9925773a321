package core

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"fliptracker/internal/acl"
	"fliptracker/internal/dddg"
	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/patterns"
	"fliptracker/internal/trace"
)

// The per-fault analysis kernels (acl.AnalyzeWith, dddg.CompareRegionWith,
// patterns.DetectRepeatedAdditionsInSpans) are column-at-a-time rewrites of
// simpler algorithms. The reference implementations below are those
// algorithms — a read-posting-list liveness pass, a faulty-side DDDG built
// per compared instance, and a per-location magnitude history — and
// TestAnalysisKernelsMatchReference pins the rewrites to them with
// reflect.DeepEqual over real faulty runs.

// refACL is the ACL construction with liveness from per-location read
// posting lists built in a pre-pass over the faulty trace.
func refACL(faulty, clean *trace.Trace, opts acl.Options) *acl.Result {
	n := faulty.Recs.Len()
	res := &acl.Result{
		Series:          make([]int32, n),
		InjectionIndex:  -1,
		DivergenceIndex: -1,
	}
	reads := map[trace.Loc][]int32{}
	for i := 0; i < n; i++ {
		for s := 0; s < faulty.Recs.NSrc(i); s++ {
			if loc := faulty.Recs.Src(i, s); loc != 0 {
				reads[loc] = append(reads[loc], int32(i))
			}
		}
	}

	tainted := map[trace.Loc]int{}
	openInterval := func(loc trace.Loc, at int, sid int32) {
		if _, already := tainted[loc]; already {
			return
		}
		res.Intervals = append(res.Intervals, acl.Interval{Loc: loc, Begin: at, End: n})
		tainted[loc] = len(res.Intervals) - 1
		res.Events = append(res.Events, acl.Event{RecIndex: at, Loc: loc, Kind: acl.Corrupted, SID: sid})
	}
	closeInterval := func(loc trace.Loc, at int, sid int32, overwrite bool) {
		ii, ok := tainted[loc]
		if !ok {
			return
		}
		delete(tainted, loc)
		res.Intervals[ii].End = at
		res.Intervals[ii].ByOverwrite = overwrite
		kind := acl.DeadUnused
		if overwrite {
			kind = acl.DeadOverwrite
		}
		res.Events = append(res.Events, acl.Event{RecIndex: at, Loc: loc, Kind: kind, SID: sid})
	}

	matched := min(clean.Recs.Len(), n)
	for i := 0; i < n; i++ {
		fr := faulty.Recs.At(i)
		valueAware := res.DivergenceIndex < 0 && i < matched
		var cr trace.Rec
		if valueAware {
			cr = clean.Recs.At(i)
			if cr.SID != fr.SID {
				res.DivergenceIndex = i
				valueAware = false
			}
		}
		anyTaintedSrc := false
		for s := 0; s < int(fr.NSrc); s++ {
			loc := fr.Src[s]
			if loc == 0 {
				continue
			}
			if _, ok := tainted[loc]; ok {
				anyTaintedSrc = true
				continue
			}
			if valueAware && fr.SrcVal[s] != cr.SrcVal[s] {
				openInterval(loc, i, fr.SID)
				if res.InjectionIndex < 0 {
					res.InjectionIndex = i
				}
				anyTaintedSrc = true
			}
		}
		if fr.Op == ir.OpCondBr && anyTaintedSrc && valueAware && fr.Taken == cr.Taken {
			res.Events = append(res.Events, acl.Event{RecIndex: i, Loc: fr.Src[0], Kind: acl.Masked, SID: fr.SID})
		}
		if fr.HasDst() {
			switch {
			case valueAware && fr.DstVal != cr.DstVal:
				if res.InjectionIndex < 0 {
					res.InjectionIndex = i
				}
				if _, ok := tainted[fr.Dst]; !ok {
					openInterval(fr.Dst, i, fr.SID)
				}
			case valueAware && fr.DstVal == cr.DstVal:
				if _, ok := tainted[fr.Dst]; ok {
					closeInterval(fr.Dst, i, fr.SID, true)
				}
				if anyTaintedSrc {
					res.Events = append(res.Events, acl.Event{RecIndex: i, Loc: fr.Dst, Kind: acl.Masked, SID: fr.SID})
				}
			case !valueAware && anyTaintedSrc:
				if _, ok := tainted[fr.Dst]; !ok {
					openInterval(fr.Dst, i, fr.SID)
				}
			case !valueAware:
				if _, ok := tainted[fr.Dst]; ok {
					closeInterval(fr.Dst, i, fr.SID, true)
				}
			}
		}
	}

	if !opts.SkipLiveness {
		for ii := range res.Intervals {
			iv := &res.Intervals[ii]
			if iv.ByOverwrite {
				continue
			}
			rs := reads[iv.Loc]
			lo := sort.Search(len(rs), func(k int) bool { return rs[k] > int32(iv.Begin) })
			hi := sort.Search(len(rs), func(k int) bool { return rs[k] >= int32(iv.End) })
			if lo >= hi {
				iv.End = min(iv.Begin+1, n)
				res.Events = append(res.Events, acl.Event{RecIndex: iv.Begin, Loc: iv.Loc, Kind: acl.DeadUnused, SID: faulty.Recs.SID(iv.Begin)})
				continue
			}
			last := int(rs[hi-1])
			if last+1 < iv.End {
				iv.End = last + 1
				res.Events = append(res.Events, acl.Event{RecIndex: last, Loc: iv.Loc, Kind: acl.DeadUnused, SID: faulty.Recs.SID(last)})
			}
		}
	}

	diff := make([]int32, n+1)
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
		res.Peak = max(res.Peak, cur)
	}
	sort.SliceStable(res.Events, func(a, b int) bool { return res.Events[a].RecIndex < res.Events[b].RecIndex })
	return res
}

// graphValues reads a DDDG's external (input) and final version of every
// location, with the versions' types, from its node list: the last node of
// a location is its final version. inputs and written are the sorted memory
// locations with an external version and with a written one.
type graphValues struct {
	ext, final       map[trace.Loc]ir.Word
	extTyp, finalTyp map[trace.Loc]ir.Type
	inputs, written  []trace.Loc
}

func valuesOf(g *dddg.Graph) graphValues {
	v := graphValues{
		ext: map[trace.Loc]ir.Word{}, final: map[trace.Loc]ir.Word{},
		extTyp: map[trace.Loc]ir.Type{}, finalTyp: map[trace.Loc]ir.Type{},
	}
	written := map[trace.Loc]bool{}
	for _, n := range g.Nodes {
		if n.External {
			v.ext[n.Loc], v.extTyp[n.Loc] = n.Val, n.Typ
			if n.Loc.IsMem() {
				v.inputs = append(v.inputs, n.Loc)
			}
		} else if n.Loc.IsMem() && !written[n.Loc] {
			written[n.Loc] = true
			v.written = append(v.written, n.Loc)
		}
		v.final[n.Loc], v.finalTyp[n.Loc] = n.Val, n.Typ
	}
	sort.Slice(v.inputs, func(i, j int) bool { return v.inputs[i] < v.inputs[j] })
	sort.Slice(v.written, func(i, j int) bool { return v.written[i] < v.written[j] })
	return v
}

// refCompare is the region comparison with the faulty side read off a DDDG
// built over the faulty span.
func refCompare(gClean *dddg.Graph, faulty *trace.Trace, fs trace.Span) *dddg.RegionComparison {
	cv, fv := valuesOf(gClean), valuesOf(dddg.Build(faulty, fs))
	res := &dddg.RegionComparison{DivergedAt: dddg.Diverged(gClean.Source(), gClean.Span(), faulty, fs)}
	for _, loc := range cv.inputs {
		c := cv.ext[loc]
		f, ok := fv.ext[loc]
		if !ok || c == f {
			continue
		}
		t := cv.extTyp[loc]
		d := dddg.LocDelta{Loc: loc, Correct: c, Faulty: f, Typ: t, ErrMag: dddg.ErrMag(c, f, t)}
		res.CorruptedInputs = append(res.CorruptedInputs, d)
		if !math.IsInf(d.ErrMag, 1) && d.ErrMag > res.MaxInputErr {
			res.MaxInputErr = d.ErrMag
		}
	}
	for _, loc := range cv.written {
		c := cv.final[loc]
		f, ok := fv.final[loc]
		if !ok || c == f {
			continue
		}
		t := cv.finalTyp[loc]
		d := dddg.LocDelta{Loc: loc, Correct: c, Faulty: f, Typ: t, ErrMag: dddg.ErrMag(c, f, t)}
		res.CorruptedOutputs = append(res.CorruptedOutputs, d)
		if !math.IsInf(d.ErrMag, 1) && d.ErrMag > res.MaxOutputErr {
			res.MaxOutputErr = d.ErrMag
		}
	}
	in, out := len(res.CorruptedInputs), len(res.CorruptedOutputs)
	res.Case1 = in > 0 && out == 0
	res.Case2 = in > 0 && out > 0 && res.MaxOutputErr < res.MaxInputErr
	return res
}

// refRepeatedAdditions is repeated-addition detection over each location's
// full history of store error magnitudes. Locations are visited in
// first-write order.
func refRepeatedAdditions(faulty, clean *trace.Trace, spans []trace.Span) []patterns.RAEvidence {
	type hist struct {
		mags    []float64
		lastIdx int
		isAccum bool
	}
	hs := map[trace.Loc]*hist{}
	var order []trace.Loc
	for _, span := range spans {
		n := min(span.End, faulty.Recs.Len(), clean.Recs.Len())
		for i := span.Start; i < n; i++ {
			fr, cr := faulty.Recs.At(i), clean.Recs.At(i)
			if fr.SID != cr.SID {
				break
			}
			if fr.Op != ir.OpStore || !fr.Dst.IsMem() {
				continue
			}
			h := hs[fr.Dst]
			if h == nil {
				h = &hist{}
				hs[fr.Dst] = h
				order = append(order, fr.Dst)
			}
			h.mags = append(h.mags, dddg.ErrMag(cr.DstVal, fr.DstVal, fr.Typ))
			h.lastIdx = i
			for j := i - 1; j >= span.Start && j > i-8; j-- {
				pr := faulty.Recs.At(j)
				if pr.Op == ir.OpFAdd && pr.HasDst() && pr.Dst == fr.Src[0] {
					h.isAccum = true
					break
				}
			}
		}
	}
	var out []patterns.RAEvidence
	for _, loc := range order {
		h := hs[loc]
		if !h.isAccum || len(h.mags) < 2 {
			continue
		}
		first := -1
		for i, m := range h.mags {
			if m > 0 {
				first = i
				break
			}
		}
		if first < 0 || first == len(h.mags)-1 {
			continue
		}
		if last := h.mags[len(h.mags)-1]; last < h.mags[first] {
			out = append(out, patterns.RAEvidence{
				Loc:          loc,
				Writes:       len(h.mags) - first,
				FirstMag:     h.mags[first],
				LastMag:      last,
				LastRecIndex: h.lastIdx,
			})
		}
	}
	return out
}

// equivFaults places one fault of each kind early, mid-run and late in the
// clean run. Across the four test apps the matrix includes crashed, hung
// and control-flow-divergent runs.
func equivFaults(prog *ir.Program, steps uint64) []interp.Fault {
	var fs []interp.Fault
	for k, frac := range []float64{0.05, 0.5, 0.93} {
		step := uint64(frac * float64(steps))
		g := prog.Globals[k%len(prog.Globals)]
		fs = append(fs,
			interp.Fault{Step: step, Bit: uint8(20 + 17*k), Kind: interp.FaultDst},
			interp.Fault{Step: step + 1, Bit: uint8(30 + 11*k), Kind: interp.FaultMem, Addr: g.Addr + g.Words/2},
			interp.Fault{Step: step + 2, Bit: uint8(40 + 7*k), Kind: interp.FaultReg, Reg: ir.Reg(1 + k)},
		)
	}
	return fs
}

func TestAnalysisKernelsMatchReference(t *testing.T) {
	var crashed, diverged, compared, raHits int
	for _, app := range []string{"cg", "mg", "kmeans", "is"} {
		an, err := NewAnalyzer(app)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := an.Index()
		if err != nil {
			t.Fatal(err)
		}
		clean := ix.clean
		for _, f := range equivFaults(ix.prog, clean.Steps) {
			m, err := ix.newMachine()
			if err != nil {
				t.Fatal(err)
			}
			// A corrupted loop bound can run to the default step limit;
			// a fully traced run that long would not fit in memory.
			m.Mode, m.Fault, m.StepLimit = interp.TraceFull, &f, 2*clean.Steps
			faulty, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			var res *acl.Result
			for _, skip := range []bool{false, true} {
				opts := acl.Options{SkipLiveness: skip}
				got, want := acl.AnalyzeWith(faulty, clean, opts), refACL(faulty, clean, opts)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %v SkipLiveness=%v: ACL result differs from reference", app, f.String(), skip)
				}
				if !skip {
					res = got
				}
			}
			if faulty.Status == trace.RunCrashed || faulty.Status == trace.RunHang {
				crashed++
			} else if res.DivergenceIndex >= 0 {
				diverged++
			}

			fIdx := trace.NewSpanIndex(faulty)
			touched := map[int32]bool{}
			for _, cs := range ix.Spans() {
				fs, ok := fIdx.Instance(cs.RegionID, cs.Instance)
				if !ok || !res.TouchesSpan(fs) {
					continue
				}
				touched[cs.RegionID] = true
				compared++
				g := ix.Graph(cs)
				if cv := valuesOf(g); !slices.Equal(g.InputMemLocs(), cv.inputs) || !slices.Equal(g.WrittenMemLocs(), cv.written) {
					t.Fatalf("%s region %d/%d: clean memory location lists differ from the node list", app, cs.RegionID, cs.Instance)
				}
				if got, want := dddg.CompareRegionWith(g, faulty, fs), refCompare(g, faulty, fs); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %v region %d/%d: comparison differs from reference\n got %+v\nwant %+v", app, f.String(), cs.RegionID, cs.Instance, got, want)
				}
				spans := []trace.Span{fs}
				if got, want := patterns.DetectRepeatedAdditionsInSpans(faulty, clean, spans), refRepeatedAdditions(faulty, clean, spans); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %v span %v: repeated additions differ\n got %+v\nwant %+v", app, f.String(), fs, got, want)
				}
			}
			for region := range touched { //ftlint:ok each region is checked independently
				spans := fIdx.Instances(region)
				got, want := patterns.DetectRepeatedAdditionsInSpans(faulty, clean, spans), refRepeatedAdditions(faulty, clean, spans)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %v region %d: repeated additions differ\n got %+v\nwant %+v", app, f.String(), region, got, want)
				}
				raHits += len(got)
			}
		}
	}
	t.Logf("crashed %d, diverged %d, region comparisons %d, repeated-addition hits %d", crashed, diverged, compared, raHits)
	if crashed == 0 || diverged == 0 || raHits == 0 {
		t.Errorf("fault matrix too narrow: crashed %d, diverged %d, repeated-addition hits %d", crashed, diverged, raHits)
	}
}
