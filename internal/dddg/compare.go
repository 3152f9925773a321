package dddg

import (
	"math"

	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// ErrMag computes the paper's error magnitude (Equation 2): the relative
// error of a faulty value with respect to its correct value. Integer words
// are compared as exact integers converted to float64. A corrupted zero
// yields +Inf, matching Table II's first row.
func ErrMag(correct, faulty ir.Word, t ir.Type) float64 {
	if correct == faulty {
		return 0
	}
	var c, f float64
	if t == ir.F64 {
		c, f = correct.Float(), faulty.Float()
	} else {
		c, f = float64(correct.Int()), float64(faulty.Int())
	}
	if c == f { // distinct bits, equal values (e.g. -0.0 vs +0.0)
		return 0
	}
	if c == 0 {
		return math.Inf(1)
	}
	return math.Abs(c-f) / math.Abs(c)
}

// LocDelta reports one location whose value differs between the fault-free
// and faulty runs at a region boundary.
type LocDelta struct {
	Loc     trace.Loc
	Correct ir.Word
	Faulty  ir.Word
	Typ     ir.Type
	ErrMag  float64
}

// RegionComparison is the §III-D faulty-vs-fault-free analysis of one code
// region instance.
type RegionComparison struct {
	// CorruptedInputs are input locations whose incoming values differ.
	CorruptedInputs []LocDelta
	// CorruptedOutputs are output locations whose final values differ.
	CorruptedOutputs []LocDelta
	// DivergedAt is the first operation index at which control flow
	// diverged within the region, or -1.
	DivergedAt int
	// MaxInputErr and MaxOutputErr are the largest finite error magnitudes
	// observed (0 when no corruption).
	MaxInputErr, MaxOutputErr float64
	// Case1 holds when at least one input is corrupted but every output is
	// correct: the region masked the error outright.
	Case1 bool
	// Case2 holds when inputs and outputs are corrupted but the error
	// magnitude shrank across the region.
	Case2 bool
}

// Tolerant reports whether the region exhibited fault tolerance under either
// of the paper's two cases.
func (c *RegionComparison) Tolerant() bool { return c.Case1 || c.Case2 }

// CompareRegion matches one region instance between a fault-free trace and a
// faulty trace and classifies its fault tolerance. Both spans should refer
// to the same region and instance number; the traces must come from runs of
// the same sealed program with identical host behaviour (§V-B's determinism
// requirement, which the interpreter's seeded RNG provides).
func CompareRegion(clean *trace.Trace, cs trace.Span, faulty *trace.Trace, fs trace.Span) *RegionComparison {
	return CompareRegionWith(Build(clean, cs), faulty, fs)
}

// CompareRegionWith is CompareRegion with a prebuilt graph of the fault-free
// instance, for pipelines that analyze many faults against one clean run:
// the clean graph is built once (e.g. cached in a core.CleanIndex) and
// reused across every per-fault comparison instead of being reconstructed
// per call. The graph remembers the trace and span it was built from, so
// only the faulty side is passed. No graph is built for the faulty side:
// the comparison reads only each memory location's external (read before
// written) and final value there, which memValues collects in one pass.
func CompareRegionWith(gClean *Graph, faulty *trace.Trace, fs trace.Span) *RegionComparison {
	fvals := gClean.memValues(faulty, fs)

	res := &RegionComparison{DivergedAt: Diverged(gClean.src, gClean.span, faulty, fs)}

	// Inputs: memory locations read-before-written in the clean region.
	for _, loc := range gClean.InputMemLocs() {
		cn := gClean.Nodes[gClean.externals[loc]]
		fv := fvals[gClean.memSlot[loc]]
		if !fv.hasExt {
			continue // control-flow divergence removed the read
		}
		if cn.Val != fv.ext {
			d := LocDelta{Loc: loc, Correct: cn.Val, Faulty: fv.ext, Typ: cn.Typ, ErrMag: ErrMag(cn.Val, fv.ext, cn.Typ)}
			res.CorruptedInputs = append(res.CorruptedInputs, d)
			if !math.IsInf(d.ErrMag, 1) && d.ErrMag > res.MaxInputErr {
				res.MaxInputErr = d.ErrMag
			}
		}
	}

	// Outputs: memory locations written in the clean region, compared at
	// their final values.
	for _, loc := range gClean.WrittenMemLocs() {
		cn := gClean.Nodes[gClean.final[loc]]
		fv := fvals[gClean.memSlot[loc]]
		if !fv.seen {
			continue // the faulty run never touched it
		}
		if cn.Val != fv.final {
			d := LocDelta{Loc: loc, Correct: cn.Val, Faulty: fv.final, Typ: cn.Typ, ErrMag: ErrMag(cn.Val, fv.final, cn.Typ)}
			res.CorruptedOutputs = append(res.CorruptedOutputs, d)
			if !math.IsInf(d.ErrMag, 1) && d.ErrMag > res.MaxOutputErr {
				res.MaxOutputErr = d.ErrMag
			}
		}
	}

	if len(res.CorruptedInputs) > 0 && len(res.CorruptedOutputs) == 0 {
		res.Case1 = true
	}
	if len(res.CorruptedInputs) > 0 && len(res.CorruptedOutputs) > 0 &&
		res.MaxOutputErr < res.MaxInputErr {
		res.Case2 = true
	}
	return res
}

// memValue is one memory location's values over a span: ext is the value
// it flowed in with (valid when hasExt, i.e. it was read before any write)
// and final the last value it held (valid when seen).
type memValue struct {
	ext, final   ir.Word
	hasExt, seen bool
}

// memValues collects, for every memory location of g's span, its external
// and final value in span of t, under Build's versioning rules: region
// markers are skipped, a source seen before any version is external (and
// final), and a write makes a new final version. Locations outside g's span
// cannot affect a comparison against g and are not tracked.
func (g *Graph) memValues(t *trace.Trace, span trace.Span) []memValue {
	g.computeMemLocs()
	r := &t.Recs
	vals := make([]memValue, len(g.memSlot))
	end := min(span.End, r.Len())
	for i := span.Start; i < end; i++ {
		if op := r.Op(i); op == ir.OpRegionEnter || op == ir.OpRegionExit {
			continue
		}
		for s := 0; s < r.NSrc(i); s++ {
			if loc := r.Src(i, s); loc.IsMem() {
				if k, ok := g.memSlot[loc]; ok && !vals[k].seen {
					v := r.SrcVal(i, s)
					vals[k] = memValue{ext: v, final: v, hasExt: true, seen: true}
				}
			}
		}
		if loc := r.Dst(i); loc.IsMem() {
			if k, ok := g.memSlot[loc]; ok {
				vals[k].final, vals[k].seen = r.DstVal(i), true
			}
		}
	}
	return vals
}
