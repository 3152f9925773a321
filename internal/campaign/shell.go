package campaign

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"iter"
	"math/rand"
	"sync"

	"fliptracker/internal/interp"
	"fliptracker/internal/irstatic"
	"fliptracker/internal/journal"
	"fliptracker/internal/stats"
)

// EarlyStopMinTests is the minimum number of completed injections before
// early stopping may end a campaign, guarding the normal-approximation
// confidence interval against tiny samples.
const EarlyStopMinTests = 48

// Spec is the engine-independent configuration of a campaign. Each engine's
// functional options fill one in; the shell reads it, and the engine reads
// the fields it needs itself (DropTraces).
type Spec struct {
	// Targets draws the fault stream. Nil only for a replay-only campaign,
	// which must then have zero Tests and cannot run injections.
	Targets TargetPicker
	// Tests is the injection count (the cap, under early stopping).
	Tests int
	// Seed seeds the single stream every fault is pre-drawn from.
	Seed int64
	// Parallelism caps workers per window; 0 means GOMAXPROCS.
	Parallelism int
	// Progress, when non-nil, is called after each delivered outcome with
	// the number delivered so far and Tests.
	Progress func(done, total int)
	// EarlyStop enables the sequential stopping rule at the given
	// Confidence and Margin (see StopEarly).
	EarlyStop          bool
	Confidence, Margin float64
	// Journal, when non-empty, is the durable journal path of the campaign.
	Journal string
	// JournalApp labels the journal header; empty means the engine's
	// default (Kind.App).
	JournalApp string
	// Pruner, when non-nil, records statically proven faults without
	// running them.
	Pruner *irstatic.Pruner
	// DropTraces releases each analyzed fault's traces once its analysis
	// returns; it requires an analyzed campaign.
	DropTraces bool
}

// Kind describes an engine to the shell.
type Kind struct {
	// Engine tags the engine's journals and prefixes its errors.
	Engine journal.Engine
	// App labels journal headers when Spec.JournalApp is empty.
	App string
	// Key is the engine's part of the configuration fingerprint: whatever
	// besides the population and stopping rule determines per-index
	// outcomes (the MPI world shape).
	Key string
	// Analyzed marks a campaign whose outcomes carry full faulty traces: the
	// shell bounds how many are in flight, and refuses journaling and static
	// pruning, which would drop or never produce them.
	Analyzed bool
}

// Engine is what a campaign engine supplies to the shell.
type Engine[O any] interface {
	// Window plans the fault-index window [first, last) of the drawn stream
	// and returns the function that runs unit i of it. Faults the mask marks
	// pruned never reach that function, so they need no plan.
	Window(ctx context.Context, faults []interp.Fault, live Mask, first, last int) (func(i int) (O, error), error)
	// Encode and Decode convert one outcome to and from its journal record.
	// A statically pruned fault's outcome is the Decode of its record.
	Encode(o O) journal.Record
	Decode(r journal.Record) O
}

// Mask is the static pruner's verdict per fault index, computed once per
// run over the executed range. A nil Mask marks every fault live.
type Mask []irstatic.Class

// Live reports whether fault i must execute.
func (m Mask) Live(i int) bool { return m == nil || m[i] == irstatic.Live }

// Shell is the campaign shell both engines embed: the fault pre-draw, the
// sequential stopping rule, the journal identity, and the one driver behind
// Run, Stream, Records and StreamWindow. The driver opens and replays the
// journal (re-checking every record against the drawn fault stream),
// executes the remaining index range on the engine, commits each outcome
// before delivering it, then reports progress and applies early stopping.
// A coordinated shell (Sharded) runs the same driver over several
// contiguous windows merged in index order, so a coordinator journal and
// an engine journal are the same thing by construction.
type Shell[O any] struct {
	spec *Spec
	eng  Engine[O]
	kind Kind

	shards   int
	journal  string
	progress func(done, total int)
}

// NewShell validates an engine's campaign configuration and builds its
// shell. spec must stay owned by the engine and unchanged afterwards.
func NewShell[O any](e Engine[O], spec *Spec, k Kind) (Shell[O], error) {
	name := k.Engine
	switch {
	case spec.Targets == nil && spec.Tests != 0:
		return Shell[O]{}, fmt.Errorf("%s: campaign with %d tests needs a TargetPicker", name, spec.Tests)
	case spec.Targets == nil && k.Analyzed:
		return Shell[O]{}, fmt.Errorf("%s: replay-only campaign cannot carry an analyzer", name)
	case spec.Targets != nil && spec.Tests <= 0:
		return Shell[O]{}, fmt.Errorf("%s: campaign needs a positive test count (WithTests)", name)
	}
	if v, ok := spec.Targets.(Validator); ok {
		if err := v.Validate(); err != nil {
			return Shell[O]{}, err
		}
	}
	if spec.EarlyStop {
		if spec.Confidence <= 0 || spec.Confidence >= 1 {
			return Shell[O]{}, fmt.Errorf("%s: early-stop confidence %v outside (0, 1)", name, spec.Confidence)
		}
		if spec.Margin <= 0 || spec.Margin >= 1 {
			return Shell[O]{}, fmt.Errorf("%s: early-stop margin %v outside (0, 1)", name, spec.Margin)
		}
	}
	switch {
	case spec.DropTraces && !k.Analyzed:
		return Shell[O]{}, fmt.Errorf("%s: WithDropTraces requires an analyzed campaign", name)
	case spec.Pruner != nil && k.Analyzed:
		return Shell[O]{}, fmt.Errorf("%s: WithStaticPrune cannot be combined with analysis (pruned faults produce no trace to analyze)", name)
	case spec.Journal != "" && k.Analyzed:
		return Shell[O]{}, fmt.Errorf("%s: WithJournal cannot be combined with analysis (analysis payloads are not journaled)", name)
	}
	return Shell[O]{spec: spec, eng: e, kind: k, shards: 1, journal: spec.Journal, progress: spec.Progress}, nil
}

// Sharded returns a copy of s that runs as a shard coordinator: Run, Stream
// and Records split the remaining index range into up to shards contiguous
// windows, run them concurrently and merge them in index order; the merged
// stream is journaled at journalPath (none when empty) and progress reports
// merged outcomes. s itself must be unjournaled.
func Sharded[O any](s *Shell[O], shards int, journalPath string, progress func(done, total int)) *Shell[O] {
	c := *s
	c.shards, c.journal, c.progress = shards, journalPath, progress
	return &c
}

// Tests returns the configured injection count (the cap, under early
// stopping).
func (s *Shell[O]) Tests() int { return s.spec.Tests }

// Journaled reports whether runs commit their outcomes to a durable
// journal. Sharded execution requires an unjournaled campaign: shards must
// not journal their windows independently, the coordinator journals the
// merged stream (internal/coord).
func (s *Shell[O]) Journaled() bool { return s.journal != "" }

// Faults returns the campaign's pre-drawn fault stream: the fault executed
// at every index 0..Tests()-1, drawn fresh from the campaign seed. The
// stream is what makes campaigns shardable — any [first, last) window of it
// can run anywhere and the outcomes merge in index order — and what resumed
// journals are validated against. A replay-only campaign returns nil.
func (s *Shell[O]) Faults() []interp.Fault {
	t := s.spec.Targets
	if t == nil {
		return nil
	}
	rng := rand.New(rand.NewSource(s.spec.Seed))
	faults := make([]interp.Fault, s.spec.Tests)
	ip, indexed := t.(IndexedPicker)
	for i := range faults {
		if indexed {
			faults[i] = ip.PickAt(i, rng)
		} else {
			faults[i] = t.Pick(rng)
		}
	}
	return faults
}

// StopEarly reports whether the sequential early-stopping rule is satisfied
// by the outcomes counted so far — always false without early stopping. The
// rule ends a campaign once the success rate's Agresti–Coull interval
// half-width (stats.AdjustedProportionCI, so an all-success prefix cannot
// collapse it to zero width) is within the margin, never before
// EarlyStopMinTests outcomes. It depends only on aggregated counts in
// fault-index order, so it is deterministic whatever the parallelism,
// scheduler or shard count.
func (s *Shell[O]) StopEarly(res Result) bool {
	if !s.spec.EarlyStop || res.Tests < EarlyStopMinTests || res.Tests >= s.spec.Tests {
		return false
	}
	return stats.AdjustedProportionCI(res.Success, res.Tests, s.spec.Confidence) <= s.spec.Margin
}

// JournalHeader identifies the campaign for the durable journal: engine,
// app label, seed, test count, and a fingerprint of the configuration that
// determines per-index outcomes — the engine key, the population (picker
// type and parameters) and the stopping rule. Parallelism, scheduler,
// checkpoint budget, static pruning and shard count are result-invariant
// and stay out, so a campaign may resume under different ones, and a
// journal written by a coordinator resumes under the plain engine and vice
// versa.
func (s *Shell[O]) JournalHeader() journal.Header {
	app := s.spec.JournalApp
	if app == "" {
		app = s.kind.App
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|targets=%T%+v|earlystop=%v:%g:%g", s.kind.Key,
		s.spec.Targets, s.spec.Targets, s.spec.EarlyStop, s.spec.Confidence, s.spec.Margin)
	return journal.Header{
		Engine:      s.kind.Engine,
		App:         app,
		Seed:        s.spec.Seed,
		Tests:       uint64(s.spec.Tests),
		Fingerprint: h.Sum64(),
	}
}

// Run executes the campaign and aggregates the outcomes. On context
// cancellation it returns the well-formed partial Result accumulated so far
// together with ctx.Err().
func (s *Shell[O]) Run(ctx context.Context) (Result, error) {
	return s.drive(ctx, 0, s.spec.Tests, true, func(O, journal.Record) bool { return true })
}

// Stream executes the campaign and yields one outcome per fault in
// fault-index order; for a fixed seed the sequence is identical whatever the
// parallelism, scheduler or shard count. Breaking out of the loop stops the
// workers promptly. On failure — including context cancellation — the final
// pair carries the error with a zero outcome; early stopping ends the
// sequence without one.
func (s *Shell[O]) Stream(ctx context.Context) iter.Seq2[O, error] {
	return seq(ctx, s, 0, s.spec.Tests, true, func(o O, _ journal.Record) O { return o })
}

// Records is Stream in the outcomes' durable journal representation — the
// engine-independent form the campaign service stores and serves.
func (s *Shell[O]) Records(ctx context.Context) iter.Seq2[journal.Record, error] {
	return seq(ctx, s, 0, s.spec.Tests, true, func(_ O, r journal.Record) journal.Record { return r })
}

// StreamWindow executes only the fault-index window [first, last) and yields
// its outcomes in index order — a coordinator's shard: contiguous windows
// partition the pre-drawn fault stream, so the per-window streams
// concatenate into exactly the sequence Stream yields. The bounds clamp to
// [0, Tests()); an empty window yields nothing. A window is one shard of a
// larger whole, so whole-campaign concerns stay with the caller: no early
// stopping (the rule reads the merged stream — see StopEarly), no progress
// reports, and a journaled campaign refuses to run windows. Checkpoint
// planning covers only the window's faults.
func (s *Shell[O]) StreamWindow(ctx context.Context, first, last int) iter.Seq2[O, error] {
	return seq(ctx, s, first, last, false, func(o O, _ journal.Record) O { return o })
}

// seq adapts the driver to an iterator over pick(outcome, record).
func seq[O, T any](ctx context.Context, s *Shell[O], first, last int, whole bool, pick func(O, journal.Record) T) iter.Seq2[T, error] {
	return func(yield func(T, error) bool) {
		broke := false
		_, err := s.drive(ctx, first, last, whole, func(o O, r journal.Record) bool {
			if !yield(pick(o, r), nil) {
				broke = true
				return false
			}
			return true
		})
		if err != nil && !broke {
			var zero T
			yield(zero, err)
		}
	}
}

// drive is the campaign driver. A whole run covers [0, Tests()) with the
// shell's journal, progress, stopping rule and shard count; otherwise only
// the clamped window [first, last) runs, unjournaled and unstopped. emit
// receives every outcome in index order with its journal record, after the
// record is committed; emit returning false stops the run. drive waits for
// every worker before returning.
func (s *Shell[O]) drive(ctx context.Context, first, last int, whole bool, emit func(O, journal.Record) bool) (Result, error) {
	var res Result
	name := s.kind.Engine
	if s.spec.Targets == nil {
		return res, fmt.Errorf("%s: replay-only campaign cannot run injections", name)
	}
	if !whole && s.journal != "" {
		return res, fmt.Errorf("%s: a journaled campaign cannot run shard windows (journal the merged stream instead)", name)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	faults := s.Faults()
	n := len(faults)
	first, last = max(0, min(first, n)), min(last, n)
	shards, journalPath, progress := 1, "", (func(int, int))(nil)
	if whole {
		shards, journalPath, progress = s.shards, s.journal, s.progress
	}

	deliver := func(o O, r journal.Record) bool {
		if progress != nil {
			progress(int(r.Index)+1, n)
		}
		res.Count(Outcome(r.Outcome))
		return emit(o, r) && !(whole && s.StopEarly(res))
	}

	var jr *journal.Journal
	if journalPath != "" {
		j, recs, err := journal.OpenOrCreate(journalPath, s.JournalHeader())
		if err != nil {
			return res, err
		}
		defer j.Close()
		for _, r := range recs {
			i := int(r.Index)
			if i >= n || r.Fault != faults[i] {
				return res, fmt.Errorf("%s: journal %s record %d (%v) does not match this campaign's fault stream: %w",
					name, journalPath, i, &r.Fault, journal.ErrMismatch)
			}
			if !deliver(s.eng.Decode(r), r) {
				return res, nil
			}
		}
		first, jr = len(recs), j
	}
	if first >= last {
		return res, nil
	}

	var appendErr error
	fresh := func(o O) bool {
		r := s.eng.Encode(o)
		if jr != nil {
			if appendErr = jr.Append(r); appendErr != nil {
				return false
			}
		}
		return deliver(o, r)
	}

	var live Mask
	if p := s.spec.Pruner; p != nil {
		live = make(Mask, n)
		for i := first; i < last; i++ {
			live[i] = p.Classify(faults[i])
		}
	}
	exec := func(ctx context.Context, lo, hi int, emit func(O) bool) error {
		unit, err := s.eng.Window(ctx, faults, live, lo, hi)
		if err != nil {
			return err
		}
		workers := Workers(s.spec.Parallelism, hi-lo)
		inflight := 0
		if s.kind.Analyzed {
			// Each analyzed outcome references a full faulty trace: bound
			// the completed-but-unemitted ones instead of letting the
			// reorder buffer absorb the campaign behind one slow fault.
			inflight = 2 * workers
		}
		return Run(ctx, Config{Items: n, First: lo, Last: hi, Workers: workers, Window: inflight},
			func(i int) (O, error) {
				if live.Live(i) {
					return unit(i)
				}
				o := NotApplied
				if live[i] == irstatic.Benign {
					o = Success
				}
				return s.eng.Decode(journal.Record{Index: uint64(i), Fault: faults[i], Outcome: uint8(o)}), nil
			}, emit)
	}

	var err error
	if plan := Plan(last-first, shards); len(plan) <= 1 {
		err = exec(ctx, first, last, fresh)
	} else {
		for i := range plan {
			plan[i].First += first
			plan[i].Last += first
		}
		err = merge(ctx, plan, exec, fresh)
	}
	if err == nil && appendErr != nil {
		err = fmt.Errorf("%s: journal append: %w", name, appendErr)
	}
	return res, err
}

// Shard is one contiguous window [First, Last) of a campaign's fault-index
// space.
type Shard struct {
	First int
	Last  int
}

// Plan splits the index space [0, tests) into at most shards contiguous,
// non-empty, near-equal windows in index order. Fewer shards come back when
// tests < shards; no shards when tests <= 0. Concatenating the windows
// always reproduces [0, tests) exactly — the invariant the merge builds on.
func Plan(tests, shards int) []Shard {
	if tests <= 0 {
		return nil
	}
	shards = max(1, min(shards, tests))
	out := make([]Shard, shards)
	base, rem := tests/shards, tests%shards
	first := 0
	for i := range out {
		size := base
		if i < rem {
			size++
		}
		out[i] = Shard{First: first, Last: first + size}
		first += size
	}
	return out
}

// merge runs every shard concurrently through exec and delivers their
// outcomes to emit in shard order. Within a shard exec already delivers
// index order and shards partition the range contiguously, so the
// concatenation is the merged order. Each shard's channel is buffered to
// the whole shard, so shard workers never block and always reach their
// context checks however far the merge lags. A failed shard ends emission
// at its last delivered outcome, keeping the emitted prefix gap-free.
func merge[O any](ctx context.Context, shards []Shard, exec func(ctx context.Context, lo, hi int, emit func(O) bool) error, emit func(O) bool) error {
	chans := make([]chan O, len(shards))
	for i, sh := range shards {
		chans[i] = make(chan O, sh.Last-sh.First)
	}
	errs := make([]error, len(shards))
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(chans[i])
			if errs[i] = exec(wctx, sh.First, sh.Last, func(o O) bool { chans[i] <- o; return true }); errs[i] != nil {
				cancel()
			}
		}()
	}

	stopped := false
merge:
	for i := range shards {
		for o := range chans[i] {
			if ctx.Err() != nil {
				break merge
			}
			if !emit(o) {
				stopped = true
				break merge
			}
		}
		if errs[i] != nil {
			break
		}
	}
	cancel()
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return err
	}
	if stopped {
		return nil
	}
	for _, err := range errs {
		// Shards cancelled by a sibling's failure report context.Canceled;
		// the first real error in shard order wins.
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
	}
	return nil
}
