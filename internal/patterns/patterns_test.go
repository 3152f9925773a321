package patterns

import (
	"strings"
	"testing"

	"fliptracker/internal/acl"
	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

func runTraced(t *testing.T, p *ir.Program, f *interp.Fault) *trace.Trace {
	t.Helper()
	m, err := interp.NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.BindStandardHosts(); err != nil {
		t.Fatal(err)
	}
	m.Mode = interp.TraceFull
	m.Fault = f
	tr, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func wholeSpan(tr *trace.Trace) trace.Span {
	return trace.Span{RegionID: -1, Start: 0, End: tr.Recs.Len()}
}

func detect(t *testing.T, p *ir.Program, clean, faulty *trace.Trace) *Detection {
	t.Helper()
	res := acl.Analyze(faulty, clean)
	return Detect(p, faulty, clean, wholeSpan(faulty), res)
}

func TestDetectOverwriting(t *testing.T) {
	p := ir.NewProgram("ovw")
	g := p.AllocGlobal("g", 1, ir.F64)
	sink := p.AllocGlobal("sink", 1, ir.F64)
	b := p.NewFunc("main", 0)
	b.StoreGI(g, 0, b.ConstF(1)) // corrupted here
	b.StoreGI(g, 0, b.ConstF(2)) // overwritten clean
	b.StoreGI(sink, 0, b.LoadGI(g, 0))
	b.Emit(ir.F64, b.LoadGI(sink, 0))
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	clean := runTraced(t, p, nil)
	// Flip the value stored first into g[0]: find the first store's step.
	var st uint64
	for i := 0; i < clean.Recs.Len(); i++ {
		if clean.Recs.At(i).Op == ir.OpStore {
			st = clean.Recs.At(i).Step
			break
		}
	}
	faulty := runTraced(t, p, &interp.Fault{Step: st, Bit: 40, Kind: interp.FaultDst})
	d := detect(t, p, clean, faulty)
	if !d.Has(Overwriting) {
		t.Errorf("overwriting not detected: %+v", d.Evidence)
	}
}

func TestDetectConditionalMasking(t *testing.T) {
	// if (x < 100) out = 1: small flips of x keep the branch outcome.
	p := ir.NewProgram("cond")
	g := p.AllocGlobal("g", 1, ir.I64)
	b := p.NewFunc("main", 0)
	x := b.ConstI(10)
	c := b.ICmp(ir.OpICmpSLT, x, b.ConstI(100))
	b.If(c, func() {
		b.StoreGI(g, 0, b.ConstI(1))
	})
	b.Emit(ir.I64, b.LoadGI(g, 0))
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	clean := runTraced(t, p, nil)
	faulty := runTraced(t, p, &interp.Fault{Step: 0, Bit: 2, Kind: interp.FaultDst}) // 10 -> 14
	d := detect(t, p, clean, faulty)
	if !d.Has(Conditional) {
		t.Errorf("conditional masking not detected: %+v", d.Evidence)
	}
}

func TestDetectShifting(t *testing.T) {
	// IS-style bucketing: bucket = key >> 4.
	p := ir.NewProgram("shift")
	g := p.AllocGlobal("g", 1, ir.I64)
	b := p.NewFunc("main", 0)
	key := b.ConstI(0x1230)
	b.StoreGI(g, 0, b.LShr(key, b.ConstI(4)))
	b.Emit(ir.I64, b.LoadGI(g, 0))
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	clean := runTraced(t, p, nil)
	faulty := runTraced(t, p, &interp.Fault{Step: 0, Bit: 1, Kind: interp.FaultDst})
	d := detect(t, p, clean, faulty)
	if !d.Has(Shifting) {
		t.Errorf("shifting not detected: %+v", d.Evidence)
	}
	if d.Has(Conditional) {
		t.Error("no conditionals in this program")
	}
}

func TestDetectTruncationConversion(t *testing.T) {
	p := ir.NewProgram("trunc")
	g := p.AllocGlobal("g", 1, ir.F64)
	b := p.NewFunc("main", 0)
	v := b.ConstF(1.5)
	b.StoreGI(g, 0, b.FPTrunc(v))
	b.Emit(ir.F64, b.LoadGI(g, 0))
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	clean := runTraced(t, p, nil)
	// Flip a mantissa bit far below float32 precision: bit 10.
	faulty := runTraced(t, p, &interp.Fault{Step: 0, Bit: 10, Kind: interp.FaultDst})
	d := detect(t, p, clean, faulty)
	if !d.Has(Truncation) {
		t.Errorf("truncation not detected: %+v", d.Evidence)
	}
}

func TestDetectTruncationFormattedOutput(t *testing.T) {
	// LULESH-style %12.6e output truncation.
	p := ir.NewProgram("sci")
	b := p.NewFunc("main", 0)
	v := b.ConstF(3.14159265358979)
	b.EmitSci6(v)
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	clean := runTraced(t, p, nil)
	faulty := runTraced(t, p, &interp.Fault{Step: 0, Bit: 3, Kind: interp.FaultDst})
	d := detect(t, p, clean, faulty)
	if !d.Has(Truncation) {
		t.Errorf("output truncation not detected: %+v", d.Evidence)
	}
}

func TestDetectDCL(t *testing.T) {
	// The Figure 8 structure: a corrupted source fans out into several
	// temporaries (hxx-style), which are aggregated into one output and
	// never used again — multiple corrupted locations die unused and the
	// ACL count collapses.
	p := ir.NewProgram("dcl")
	src := p.AllocGlobal("src", 1, ir.F64)
	tmp := p.AllocGlobal("tmp", 6, ir.F64)
	out := p.AllocGlobal("out", 1, ir.F64)
	b := p.NewFunc("main", 0)
	b.StoreGI(src, 0, b.ConstF(2.0))
	// tmp[i] = src * (i+1): corruption of src spreads to all six.
	b.ForI(0, 6, func(i ir.Reg) {
		w := b.SIToFP(b.AddI(i, 1))
		b.StoreG(tmp, i, b.FMul(b.LoadGI(src, 0), w))
	})
	// Aggregate into out; the tmps are dead afterwards.
	acc := b.ConstF(0)
	b.ForI(0, 6, func(i ir.Reg) {
		b.BinTo(ir.OpFAdd, acc, acc, b.LoadG(tmp, i))
	})
	b.StoreGI(out, 0, b.FMul(acc, b.ConstF(1e-6)))
	b.Emit(ir.F64, b.LoadGI(out, 0))
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	clean := runTraced(t, p, nil)
	// Corrupt src after its store, before the fan-out reads it.
	var srcStore uint64
	for i := 0; i < clean.Recs.Len(); i++ {
		if clean.Recs.At(i).Op == ir.OpStore {
			srcStore = clean.Recs.At(i).Step + 1
			break
		}
	}
	srcG, _ := p.GlobalByName("src")
	faulty := runTraced(t, p, &interp.Fault{Step: srcStore, Bit: 50, Kind: interp.FaultMem, Addr: srcG.Addr})
	d := detect(t, p, clean, faulty)
	if !d.Has(DCL) {
		t.Errorf("DCL not detected: %+v", d.Evidence)
	}
}

func TestDCLNotDetectedForSingleDeath(t *testing.T) {
	// One corrupted value dying once is not the aggregation pattern.
	p := ir.NewProgram("nodcl")
	g := p.AllocGlobal("g", 2, ir.F64)
	b := p.NewFunc("main", 0)
	b.StoreGI(g, 0, b.ConstF(1))
	b.StoreGI(g, 1, b.FMul(b.LoadGI(g, 0), b.ConstF(0))) // g[0] read once, dead after
	b.Emit(ir.F64, b.LoadGI(g, 1))
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	clean := runTraced(t, p, nil)
	faulty := runTraced(t, p, &interp.Fault{Step: 0, Bit: 48, Kind: interp.FaultDst})
	d := detect(t, p, clean, faulty)
	if d.Has(DCL) {
		t.Errorf("single death wrongly classified as DCL: %+v", d.Evidence)
	}
}

func TestDetectRepeatedAdditions(t *testing.T) {
	// u[0] += c repeatedly: after corruption of u[0], the relative error
	// decays as correct mass accumulates.
	p := ir.NewProgram("ra")
	u := p.AllocGlobal("u", 1, ir.F64)
	b := p.NewFunc("main", 0)
	b.StoreGI(u, 0, b.ConstF(1.0))
	b.ForI(0, 20, func(i ir.Reg) {
		cur := b.LoadGI(u, 0)
		b.StoreGI(u, 0, b.FAdd(cur, b.ConstF(5.0)))
	})
	b.Emit(ir.F64, b.LoadGI(u, 0))
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	clean := runTraced(t, p, nil)
	// Corrupt u[0] after its first store (flip a middle mantissa bit).
	var afterFirstStore uint64
	for i := 0; i < clean.Recs.Len(); i++ {
		if clean.Recs.At(i).Op == ir.OpStore {
			afterFirstStore = clean.Recs.At(i).Step + 1
			break
		}
	}
	faulty := runTraced(t, p, &interp.Fault{Step: afterFirstStore, Bit: 48, Kind: interp.FaultMem, Addr: u.Addr})
	d := detect(t, p, clean, faulty)
	if !d.Has(RepeatedAddition) {
		t.Errorf("repeated additions not detected: %+v", d.Evidence)
	}
	// The evidence should show shrinking magnitude.
	for _, e := range d.Evidence {
		if e.Pattern == RepeatedAddition && !strings.Contains(e.Note, "->") {
			t.Errorf("RA evidence note malformed: %q", e.Note)
		}
	}
}

func TestDetectionCountAndNames(t *testing.T) {
	var d Detection
	d.Found[DCL] = true
	d.Found[Shifting] = true
	if d.Count() != 2 {
		t.Errorf("Count = %d", d.Count())
	}
	for p := Pattern(0); p < NumPatterns; p++ {
		if p.String() == "" || p.Short() == "" {
			t.Errorf("pattern %d has empty name", p)
		}
	}
	if Pattern(99).String() == "" || Pattern(99).Short() != "?" {
		t.Error("unknown pattern naming wrong")
	}
}

// TestDetectorMatchesDetect pins the Detector refactor: for every sub-span
// of a faulty run, the event-index Detector must reproduce the one-shot
// Detect byte for byte (same Found set, same Evidence in the same order).
func TestDetectorMatchesDetect(t *testing.T) {
	p := ir.NewProgram("detr")
	g := p.AllocGlobal("g", 4, ir.F64)
	sink := p.AllocGlobal("sink", 1, ir.F64)
	b := p.NewFunc("main", 0)
	for i := int64(0); i < 4; i++ {
		b.StoreGI(g, i, b.ConstF(float64(i)+1))
	}
	acc := b.ConstF(0)
	b.ForI(0, 4, func(i ir.Reg) {
		b.BinTo(ir.OpFAdd, acc, acc, b.LoadG(g, i))
	})
	b.StoreGI(sink, 0, acc)
	b.StoreGI(g, 0, b.ConstF(9)) // clean overwrite of a corrupted cell
	b.Emit(ir.F64, b.LoadGI(sink, 0))
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	clean := runTraced(t, p, nil)
	var st uint64
	for i := 0; i < clean.Recs.Len(); i++ {
		if clean.Recs.At(i).Op == ir.OpStore {
			st = clean.Recs.At(i).Step
			break
		}
	}
	faulty := runTraced(t, p, &interp.Fault{Step: st, Bit: 44, Kind: interp.FaultDst})
	res := acl.Analyze(faulty, clean)
	dt := NewDetector(p, faulty, clean, res)
	n := faulty.Recs.Len()
	spans := []trace.Span{
		{Start: 0, End: n},
		{Start: 0, End: n / 2},
		{Start: n / 2, End: n},
		{Start: n / 3, End: 2 * n / 3},
		{Start: n, End: n}, // empty
	}
	for _, s := range spans {
		want := Detect(p, faulty, clean, s, res)
		got := dt.Detect(s)
		if got.Found != want.Found {
			t.Errorf("span %+v: Found %v, want %v", s, got.Found, want.Found)
		}
		if len(got.Evidence) != len(want.Evidence) {
			t.Fatalf("span %+v: %d evidence entries, want %d", s, len(got.Evidence), len(want.Evidence))
		}
		for i := range want.Evidence {
			if got.Evidence[i] != want.Evidence[i] {
				t.Errorf("span %+v evidence %d = %+v, want %+v", s, i, got.Evidence[i], want.Evidence[i])
			}
		}
	}
}

// TestRepeatedAdditionsEvidenceOrder pins repeated-addition evidence to the
// order of each location's first write, whatever order later writes take.
func TestRepeatedAdditionsEvidenceOrder(t *testing.T) {
	addrs := []int64{300, 100, 200} // first-write order
	var cleanRecs, faultyRecs []trace.Rec
	for it := 0; it < 5; it++ {
		for k := range addrs {
			if it%2 == 1 {
				k = len(addrs) - 1 - k // later writes in reverse order
			}
			reg := trace.RegLoc(0, ir.Reg(k+1))
			correct := float64(10 * (it + 1))
			for _, run := range []struct {
				recs *[]trace.Rec
				val  float64
			}{{&cleanRecs, correct}, {&faultyRecs, correct + 1}} {
				v := ir.F64Word(run.val)
				*run.recs = append(*run.recs,
					trace.Rec{SID: int32(2 * k), Op: ir.OpFAdd, Typ: ir.F64, RegionID: -1, Dst: reg, DstVal: v},
					trace.Rec{SID: int32(2*k + 1), Op: ir.OpStore, Typ: ir.F64, RegionID: -1, Dst: trace.MemLoc(addrs[k]), DstVal: v,
						NSrc: 1, Src: [2]trace.Loc{reg}, SrcVal: [2]ir.Word{v}})
			}
		}
	}
	clean := &trace.Trace{Recs: trace.MakeRecs(cleanRecs...)}
	faulty := &trace.Trace{Recs: trace.MakeRecs(faultyRecs...)}
	for rep := 0; rep < 20; rep++ {
		ev := DetectRepeatedAdditions(faulty, clean, wholeSpan(faulty))
		if len(ev) != len(addrs) {
			t.Fatalf("got %d evidence entries, want %d: %+v", len(ev), len(addrs), ev)
		}
		for i, e := range ev {
			if e.Loc != trace.MemLoc(addrs[i]) || e.Writes != 5 {
				t.Fatalf("evidence %d = %v over %d writes, want %v over 5 (order %+v)", i, e.Loc, e.Writes, trace.MemLoc(addrs[i]), ev)
			}
		}
	}
}
