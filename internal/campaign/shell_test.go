package campaign

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/irstatic"
	"fliptracker/internal/journal"
)

// unit is the fake engine's outcome type.
type unit struct {
	Index   int
	Fault   interp.Fault
	Outcome Outcome
}

// fakeEngine classifies a fault by its bit (bit%3: success, failed,
// crashed), optionally failing one index or encoding records it cannot
// append, and records every window it plans.
type fakeEngine struct {
	t       *testing.T
	failAt  int
	badRecs bool

	mu      sync.Mutex
	windows [][2]int
}

func (e *fakeEngine) Window(ctx context.Context, faults []interp.Fault, live Mask, first, last int) (func(int) (unit, error), error) {
	e.mu.Lock()
	e.windows = append(e.windows, [2]int{first, last})
	e.mu.Unlock()
	return func(i int) (unit, error) {
		if i < first || i >= last {
			e.t.Errorf("unit %d ran outside its window [%d, %d)", i, first, last)
		}
		if !live.Live(i) {
			e.t.Errorf("pruned unit %d ran", i)
		}
		if i == e.failAt {
			return unit{}, errBoom
		}
		return unit{i, faults[i], Outcome(faults[i].Bit % 3)}, nil
	}, nil
}

func (e *fakeEngine) Encode(u unit) journal.Record {
	r := journal.Record{Index: uint64(u.Index), Outcome: uint8(u.Outcome), Fault: u.Fault}
	if e.badRecs {
		r.Index += 100
	}
	return r
}

func (e *fakeEngine) Decode(r journal.Record) unit {
	return unit{int(r.Index), r.Fault, Outcome(r.Outcome)}
}

var errBoom = errors.New("boom")

// stepPicker draws steps in [0, 5) and a uniform bit.
type stepPicker struct{}

func (stepPicker) Pick(r *rand.Rand) interp.Fault {
	return interp.Fault{Step: uint64(r.Intn(5)), Bit: uint8(r.Intn(64)), Kind: interp.FaultDst}
}

// successPicker draws only bit 0 (success), so the stopping rule fires.
type successPicker struct{}

func (successPicker) Pick(r *rand.Rand) interp.Fault {
	return interp.Fault{Step: uint64(r.Intn(1000)), Kind: interp.FaultDst}
}

// emptyPicker fails validation.
type emptyPicker struct{ stepPicker }

func (emptyPicker) Validate() error { return errors.New("empty population") }

// listPicker draws by index.
type listPicker struct{ stepPicker }

func (listPicker) PickAt(i int, r *rand.Rand) interp.Fault {
	return interp.Fault{Step: uint64(i), Bit: uint8(i), Kind: interp.FaultDst}
}

func newShell(t *testing.T, spec Spec, e *fakeEngine, analyzed bool) *Shell[unit] {
	t.Helper()
	if e == nil {
		e = &fakeEngine{t: t, failAt: -1}
	}
	if spec.Targets == nil {
		spec.Targets = stepPicker{}
	}
	sp := spec
	s, err := NewShell[unit](e, &sp, Kind{Engine: journal.EngineInject, Key: "fake", Analyzed: analyzed})
	if err != nil {
		t.Fatal(err)
	}
	return &s
}

func collect[T any](t *testing.T, seq func(func(T, error) bool)) ([]T, error) {
	t.Helper()
	var out []T
	for v, err := range seq {
		if err != nil {
			return out, err
		}
		out = append(out, v)
	}
	return out, nil
}

// TestShellStreamShardInvariant: the stream is the same at every
// parallelism and shard count, Run aggregates it, and Records carries it in
// journal form.
func TestShellStreamShardInvariant(t *testing.T) {
	const tests = 40
	ref, err := collect(t, newShell(t, Spec{Tests: tests, Seed: 3, Parallelism: 1}, nil, false).Stream(context.Background()))
	if err != nil || len(ref) != tests {
		t.Fatalf("reference: %d outcomes, %v", len(ref), err)
	}
	var want Result
	for i, u := range ref {
		if u.Index != i {
			t.Fatalf("outcome %d has index %d", i, u.Index)
		}
		want.Count(u.Outcome)
	}
	for _, par := range []int{1, 4} {
		for _, shards := range []int{0, 1, 2, 3, 7, 100} {
			s := Sharded(newShell(t, Spec{Tests: tests, Seed: 3, Parallelism: par}, nil, false), shards, "", nil)
			got, err := collect(t, s.Stream(context.Background()))
			if err != nil || !slices.Equal(got, ref) {
				t.Fatalf("par %d shards %d: stream differs (%v)", par, shards, err)
			}
			res, err := s.Run(context.Background())
			if err != nil || res != want {
				t.Fatalf("par %d shards %d: Run %+v (%v), want %+v", par, shards, res, err, want)
			}
			recs, err := collect(t, s.Records(context.Background()))
			if err != nil || len(recs) != tests {
				t.Fatalf("par %d shards %d: %d records (%v)", par, shards, len(recs), err)
			}
			for i, r := range recs {
				if int(r.Index) != i || r.Fault != ref[i].Fault || Outcome(r.Outcome) != ref[i].Outcome {
					t.Fatalf("par %d shards %d: record %d = %+v, want %+v", par, shards, i, r, ref[i])
				}
			}
		}
	}
}

// TestShellShardPlans: a sharded run plans one window per shard and the
// plain run plans one window inline.
func TestShellShardPlans(t *testing.T) {
	e := &fakeEngine{t: t, failAt: -1}
	s := newShell(t, Spec{Tests: 10}, e, false)
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := Sharded(s, 3, "", nil).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(e.windows[1:], func(a, b [2]int) int { return a[0] - b[0] })
	if want := [][2]int{{0, 10}, {0, 4}, {4, 7}, {7, 10}}; !slices.Equal(e.windows, want) {
		t.Fatalf("planned windows %v, want %v", e.windows, want)
	}
}

// TestShellIndexedPicker: an IndexedPicker draws fault i by position.
func TestShellIndexedPicker(t *testing.T) {
	s := newShell(t, Spec{Tests: 5, Targets: listPicker{}}, nil, false)
	for i, f := range s.Faults() {
		if f.Step != uint64(i) {
			t.Fatalf("fault %d = %v, want step %d", i, f, i)
		}
	}
}

// TestShellWindowBounds: windows clamp to [0, Tests()) and an empty or
// inverted window yields nothing and plans nothing.
func TestShellWindowBounds(t *testing.T) {
	e := &fakeEngine{t: t, failAt: -1}
	s := newShell(t, Spec{Tests: 20}, e, false)
	full, _ := collect(t, s.Stream(context.Background()))
	e.windows = nil
	for _, w := range []struct{ first, last, lo, hi int }{
		{0, 0, 0, 0}, {5, 0, 0, 0}, {5, -1, 0, 0}, {3, 3, 0, 0}, {-2, 4, 0, 4}, {18, 99, 18, 20}, {25, 30, 0, 0},
	} {
		got, err := collect(t, s.StreamWindow(context.Background(), w.first, w.last))
		if err != nil || !slices.Equal(got, full[w.lo:w.hi]) {
			t.Errorf("StreamWindow(%d, %d) yielded %d outcomes (%v), want %d", w.first, w.last, len(got), err, w.hi-w.lo)
		}
	}
	if want := [][2]int{{0, 4}, {18, 20}}; !slices.Equal(e.windows, want) {
		t.Errorf("planned windows %v, want %v", e.windows, want)
	}
}

// TestShellJournalResume: a run broken after k outcomes leaves exactly k
// committed records; resuming — plain or sharded — replays them with
// progress and runs only the remainder, to the uninterrupted stream.
func TestShellJournalResume(t *testing.T) {
	const tests = 30
	ref, _ := collect(t, newShell(t, Spec{Tests: tests, Seed: 9}, nil, false).Stream(context.Background()))
	for _, shards := range []int{1, 3} {
		for _, k := range []int{1, 12, tests} {
			path := filepath.Join(t.TempDir(), "j")
			first := newShell(t, Spec{Tests: tests, Seed: 9, Journal: path}, nil, false)
			if !first.Journaled() {
				t.Fatal("journaled shell reports unjournaled")
			}
			n := 0
			for _, err := range first.Stream(context.Background()) {
				if err != nil {
					t.Fatal(err)
				}
				if n++; n == k {
					break
				}
			}
			e := &fakeEngine{t: t, failAt: -1}
			var prog []int
			s := Sharded(newShell(t, Spec{Tests: tests, Seed: 9}, e, false), shards, path, func(done, total int) {
				if total != tests {
					t.Errorf("progress total %d, want %d", total, tests)
				}
				prog = append(prog, done)
			})
			got, err := collect(t, s.Stream(context.Background()))
			if err != nil || !slices.Equal(got, ref) {
				t.Fatalf("shards %d kill %d: resumed stream differs (%v)", shards, k, err)
			}
			for i, d := range prog {
				if d != i+1 {
					t.Fatalf("shards %d kill %d: progress %v", shards, k, prog)
				}
			}
			for _, w := range e.windows {
				if w[0] < k {
					t.Fatalf("shards %d kill %d: re-ran committed window %v", shards, k, w)
				}
			}
		}
	}
}

// TestShellJournalMismatch: a journal of another campaign is refused by
// its header, and a record contradicting the drawn fault stream is refused
// on replay; both surface journal.ErrMismatch.
func TestShellJournalMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	if _, err := newShell(t, Spec{Tests: 10, Seed: 1, Journal: path}, nil, false).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := newShell(t, Spec{Tests: 10, Seed: 2, Journal: path}, nil, false).Run(context.Background()); !errors.Is(err, journal.ErrMismatch) {
		t.Fatalf("other seed: %v, want ErrMismatch", err)
	}

	s := newShell(t, Spec{Tests: 10, Seed: 1}, nil, false)
	forged := filepath.Join(t.TempDir(), "forged")
	j, err := journal.Create(forged, s.JournalHeader())
	if err != nil {
		t.Fatal(err)
	}
	f := s.Faults()[0]
	f.Bit ^= 1
	if err := j.Append(journal.Record{Index: 0, Fault: f}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	res, err := Sharded(s, 1, forged, nil).Run(context.Background())
	if !errors.Is(err, journal.ErrMismatch) || res.Tests != 0 {
		t.Fatalf("forged record: %+v, %v; want ErrMismatch before any outcome", res, err)
	}

	if _, err := Sharded(s, 1, t.TempDir(), nil).Run(context.Background()); err == nil {
		t.Fatal("journal path naming a directory was accepted")
	}
}

// TestShellJournalAppendError: an outcome that cannot be committed is never
// delivered, and the run reports the append failure.
func TestShellJournalAppendError(t *testing.T) {
	for _, shards := range []int{1, 2} {
		e := &fakeEngine{t: t, failAt: -1, badRecs: true}
		s := Sharded(newShell(t, Spec{Tests: 10}, e, false), shards, filepath.Join(t.TempDir(), "j"), nil)
		got, err := collect(t, s.Stream(context.Background()))
		if len(got) != 0 || !errors.Is(err, journal.ErrCorrupt) {
			t.Fatalf("shards %d: delivered %d outcomes, err %v; want none and the append error", shards, len(got), err)
		}
	}
}

// TestShellEarlyStop: the stopping rule ends a whole run at the same index
// at every shard count, never before EarlyStopMinTests; windows ignore it.
func TestShellEarlyStop(t *testing.T) {
	const tests = 200
	spec := Spec{Tests: tests, Targets: successPicker{}, EarlyStop: true, Confidence: 0.95, Margin: 0.05}
	s := newShell(t, spec, nil, false)
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Tests < EarlyStopMinTests || res.Tests >= tests {
		t.Fatalf("early stop after %d tests, want in [%d, %d)", res.Tests, EarlyStopMinTests, tests)
	}
	for _, shards := range []int{2, 5} {
		got, err := Sharded(s, shards, "", nil).Run(context.Background())
		if err != nil || got != res {
			t.Fatalf("shards %d: %+v (%v), want %+v", shards, got, err, res)
		}
	}
	if win, _ := collect(t, s.StreamWindow(context.Background(), 0, tests)); len(win) != tests {
		t.Fatalf("window yielded %d outcomes, want all %d (no early stop)", len(win), tests)
	}
	spec.EarlyStop = false
	if full, _ := newShell(t, spec, nil, false).Run(context.Background()); full.Tests != tests {
		t.Fatalf("without early stop: %d tests, want %d", full.Tests, tests)
	}
}

// TestShellStaticPrune: pruned faults never reach the engine — Benign ones
// record Success, NeverFires ones NotApplied — and live faults run.
func TestShellStaticPrune(t *testing.T) {
	p := ir.NewProgram("prune")
	b := p.NewFunc("main", 0)
	b.ConstI(7) // step 0: dead -> benign
	c := b.ConstI(1)
	b.Emit(ir.I64, c) // step 2: never fires
	b.RetVoid()
	b.Done()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	an, err := irstatic.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := interp.NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	m.RecordSIDs = true
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	pr, err := irstatic.NewPruner(an, m.SIDLog())
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3} {
		s := Sharded(newShell(t, Spec{Tests: 40, Pruner: pr}, nil, false), shards, "", nil)
		got, err := collect(t, s.Stream(context.Background()))
		if err != nil || len(got) != 40 {
			t.Fatalf("shards %d: %d outcomes, %v", shards, len(got), err)
		}
		for _, u := range got {
			want := Outcome(u.Fault.Bit % 3)
			switch pr.Classify(u.Fault) {
			case irstatic.Benign:
				want = Success
			case irstatic.NeverFires:
				want = NotApplied
			}
			if u.Outcome != want {
				t.Fatalf("shards %d: fault %v -> %v, want %v", shards, u.Fault, u.Outcome, want)
			}
		}
	}
}

// TestShellWorkError: a failing unit ends the stream with its error after a
// clean prefix of the outcomes before it (all of them on one sequential
// worker; siblings cancelled by the failure may cut it shorter), whatever
// the shard count.
func TestShellWorkError(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for _, failAt := range []int{0, 5, 15} {
			e := &fakeEngine{t: t, failAt: failAt}
			s := Sharded(newShell(t, Spec{Tests: 20, Parallelism: shards}, e, false), shards, "", nil)
			got, err := collect(t, s.Stream(context.Background()))
			if !errors.Is(err, errBoom) || len(got) > failAt || (shards == 1 && len(got) != failAt) {
				t.Fatalf("shards %d fail %d: %d outcomes, %v", shards, failAt, len(got), err)
			}
			for i, u := range got {
				if u.Index != i {
					t.Fatalf("shards %d fail %d: outcome %d has index %d", shards, failAt, i, u.Index)
				}
			}
		}
	}
}

// TestShellCancel: cancelling mid-run returns the partial Result with
// ctx.Err(); a pre-cancelled context runs nothing; a nil one runs.
func TestShellCancel(t *testing.T) {
	for _, shards := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		s := Sharded(newShell(t, Spec{Tests: 50, Parallelism: 2}, nil, true), shards, "", func(done, _ int) {
			if done == 3 {
				cancel()
			}
		})
		res, err := s.Run(ctx)
		if !errors.Is(err, context.Canceled) || res.Tests < 3 || res.Tests >= 50 {
			t.Fatalf("shards %d: %+v, %v", shards, res, err)
		}
		if res, err := s.Run(ctx); !errors.Is(err, context.Canceled) || res.Tests != 0 {
			t.Fatalf("shards %d: pre-cancelled run: %+v, %v", shards, res, err)
		}
		cancel()
	}
	if res, err := newShell(t, Spec{Tests: 5}, nil, false).Run(nil); err != nil || res.Tests != 5 {
		t.Fatalf("nil context: %+v, %v", res, err)
	}
}

// TestNewShellValidation: configurations the shell refuses.
func TestNewShellValidation(t *testing.T) {
	pr := &irstatic.Pruner{}
	for _, tc := range []struct {
		name     string
		spec     Spec
		analyzed bool
	}{
		{"tests without picker", Spec{Tests: 3}, false},
		{"replay-only analyzed", Spec{}, true},
		{"no tests", Spec{Targets: stepPicker{}}, false},
		{"empty population", Spec{Targets: emptyPicker{}, Tests: 3}, false},
		{"confidence", Spec{Targets: stepPicker{}, Tests: 3, EarlyStop: true, Confidence: 1, Margin: 0.1}, false},
		{"margin", Spec{Targets: stepPicker{}, Tests: 3, EarlyStop: true, Confidence: 0.9, Margin: 0}, false},
		{"drop without analysis", Spec{Targets: stepPicker{}, Tests: 3, DropTraces: true}, false},
		{"prune with analysis", Spec{Targets: stepPicker{}, Tests: 3, Pruner: pr}, true},
		{"journal with analysis", Spec{Targets: stepPicker{}, Tests: 3, Journal: "x"}, true},
	} {
		if _, err := NewShell[unit](&fakeEngine{t: t}, &tc.spec, Kind{Engine: journal.EngineMPI, Analyzed: tc.analyzed}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	replay, err := NewShell[unit](&fakeEngine{t: t}, &Spec{}, Kind{Engine: journal.EngineMPI, App: "prog"})
	if err != nil {
		t.Fatal(err)
	}
	if replay.Faults() != nil {
		t.Fatal("replay-only shell drew faults")
	}
	if _, err := replay.Run(context.Background()); err == nil {
		t.Fatal("replay-only shell ran injections")
	}
	if h := replay.JournalHeader(); h.App != "prog" || h.Engine != journal.EngineMPI {
		t.Fatalf("header %+v: want the engine's default app and tag", h)
	}

	path := filepath.Join(t.TempDir(), "j")
	s := newShell(t, Spec{Tests: 4, Journal: path, JournalApp: "app"}, nil, false)
	if _, err := collect(t, s.StreamWindow(context.Background(), 0, 2)); err == nil {
		t.Fatal("journaled shell ran a window")
	}
	if h := s.JournalHeader(); h.App != "app" || h.Tests != 4 {
		t.Fatalf("header %+v", h)
	}
}

// TestJournalHeaderFingerprint: the fingerprint covers the engine key, the
// population and the stopping rule, and nothing result-invariant.
func TestJournalHeaderFingerprint(t *testing.T) {
	fp := func(spec Spec, key string) uint64 {
		s, err := NewShell[unit](&fakeEngine{t: t}, &spec, Kind{Key: key})
		if err != nil {
			t.Fatal(err)
		}
		return s.JournalHeader().Fingerprint
	}
	base := Spec{Targets: stepPicker{}, Tests: 3}
	ref := fp(base, "k")
	same := base
	same.Parallelism, same.Journal = 7, "elsewhere"
	if fp(same, "k") != ref {
		t.Error("result-invariant knobs moved the fingerprint")
	}
	stop := base
	stop.EarlyStop, stop.Confidence, stop.Margin = true, 0.9, 0.1
	pop := base
	pop.Targets = listPicker{}
	for _, c := range []struct {
		name string
		fp   uint64
	}{{"key", fp(base, "other")}, {"early stop", fp(stop, "k")}, {"population", fp(pop, "k")}} {
		if c.fp == ref {
			t.Errorf("%s change left the fingerprint unchanged", c.name)
		}
	}
}
