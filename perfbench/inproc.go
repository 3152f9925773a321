package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fliptracker/internal/core"
	"fliptracker/internal/inject"
	"fliptracker/internal/interp"
	"fliptracker/internal/journal"
	"fliptracker/internal/trace"
)

// inproc is the shape both in-process workloads share: a fixed list of
// applications, each campaign one app × one of `sets` distinct fault draws.
// The timed phase cycles through all of them, one at a time, so every timed
// campaign has a replay to be checked against and repeats of one campaign
// must agree exactly.
type inproc struct {
	e     *env
	names []string
	tests int
	sets  int
	// analyzed selects region-analyzed campaigns (full trace plus ACL,
	// DDDG and patterns over one region instance per app) instead of
	// untraced whole-program ones.
	analyzed bool
	ans      []*core.Analyzer
}

func newWholePlain(e *env) workload {
	return &inproc{e: e, names: e.scale.wholeApps, tests: e.scale.wholeTests, sets: e.scale.wholeSets}
}

func newRegionAnalyzed(e *env) workload {
	return &inproc{e: e, names: e.scale.regionApps, tests: e.scale.regionTests, sets: e.scale.regionSets, analyzed: true}
}

// setup builds each app's analyzer with everything a campaign would
// otherwise build lazily: the clean full trace, the verifier's reference
// output, and for analyzed campaigns the CleanIndex.
func (w *inproc) setup() (time.Duration, error) {
	w.ans = nil
	start := time.Now()
	ans := make([]*core.Analyzer, len(w.names))
	for i, name := range w.names {
		an, err := core.NewAnalyzer(name)
		if err != nil {
			return 0, err
		}
		if _, err := an.CleanTrace(); err != nil {
			return 0, err
		}
		if _, err := an.App.Reference(); err != nil {
			return 0, err
		}
		if w.analyzed {
			// The index builds region-instance DDDGs on first touch;
			// every clean instance fits its cache, so build them all here
			// rather than in whichever timed campaign touches one first.
			ix, err := an.Index()
			if err != nil {
				return 0, err
			}
			for _, s := range ix.Spans() {
				ix.Graph(s)
			}
		}
		ans[i] = an
	}
	w.ans = ans
	return time.Since(start), nil
}

func (w *inproc) key(k, a int) string { return fmt.Sprintf("%s/k%d", w.names[a], k) }

func (w *inproc) population(a int) core.Population {
	if w.analyzed {
		return core.RegionInternal(w.ans[a].App.Regions[0], 0)
	}
	return core.WholeProgram()
}

func (w *inproc) options(k, a int) []inject.Option {
	return []inject.Option{
		inject.WithTests(w.tests),
		inject.WithSeed(subSeed(w.e.seed, k, a)),
		inject.WithParallelism(w.e.nproc),
	}
}

// build constructs campaign (k, a) the way a library user does: through the
// analyzer, plain or analyzed.
func (w *inproc) build(k, a int) (*inject.Campaign, error) {
	an := w.ans[a]
	if w.analyzed {
		return an.NewAnalyzedCampaign(w.population(a), append(w.options(k, a), inject.WithDropTraces())...)
	}
	return an.NewCampaign(w.population(a), w.options(k, a)...)
}

// measure cycles through every distinct campaign (fault set k of app a)
// until d has passed and reports each one's best run.
func (w *inproc) measure(d time.Duration, rec *recorder) (*phase, error) {
	n := len(w.ans)
	group := make([]int, w.sets*n)
	faults := make([]int, w.sets*n)
	for c := range faults {
		group[c], faults[c] = c%n, w.tests
	}
	cs := newCases(group, faults)
	cs.cycle(d, func(c int) (time.Duration, time.Duration, bool) {
		k, a := c/n, c%n
		key := w.key(k, a)
		var got int
		var first, total time.Duration
		var err error
		if rec == nil {
			got, first, total, err = w.timedCampaign(key, k, a)
		} else {
			got, first, total, err = w.tracedCampaign(rec, key, k, a)
		}
		ok := w.e.check.expect(err == nil && got == w.tests, "campaign %s: %d/%d outcomes, err %v", key, got, w.tests, err)
		return total, first, ok
	})
	return cs.phase(), nil
}

// timedCampaign runs one campaign untraced, timed from building it to its
// last outcome, and records its outcome digest.
func (w *inproc) timedCampaign(key string, k, a int) (n int, first, total time.Duration, err error) {
	t0 := time.Now()
	c, err := w.build(k, a)
	if err != nil {
		return 0, 0, 0, err
	}
	recs := make([]journal.Record, 0, w.tests)
	for fo, err := range c.Stream(context.Background()) {
		if err != nil {
			return 0, 0, 0, err
		}
		if len(recs) == 0 {
			first = time.Since(t0)
		}
		recs = append(recs, injectRecord(fo))
	}
	total = time.Since(t0)
	w.e.observe(key, digestRecords(recs, false))
	return len(recs), first, total, nil
}

// tracedCampaign runs the same campaign with a span around every callback
// the engine accepts: the machine factory, verify, the TraceAnalyzer, and
// the stream receive (timed from the analyzer's return to in-order
// delivery, the reorder wait). The campaign replays the analyzer-built
// campaign's drawn faults, so its digest must match the untraced run's.
func (w *inproc) tracedCampaign(rec *recorder, key string, k, a int) (n int, first, total time.Duration, err error) {
	an := w.ans[a]
	t0 := time.Now()
	cs := rec.begin("campaign", key, -1)
	defer rec.end(cs)
	plain, err := w.build(k, a)
	if err != nil {
		return 0, 0, 0, err
	}
	mk := func() (*interp.Machine, error) {
		s := rec.begin("apps.new_machine", key, cs)
		defer rec.end(s)
		return an.App.NewMachine()
	}
	verify := func(tr *trace.Trace) bool {
		s := rec.begin("apps.verify", key, cs)
		defer rec.end(s)
		return an.App.Verify(tr)
	}
	opts := append(w.options(k, a), inject.WithScheduler(inject.ScheduleCheckpointed))
	var mu sync.Mutex
	analyzedAt := map[int]time.Time{}
	if w.analyzed {
		ix, err := an.Index()
		if err != nil {
			return 0, 0, 0, err
		}
		analyze := func(i int, f interp.Fault, faulty *trace.Trace, o inject.Outcome) (any, error) {
			s := rec.begin("core.analyze", fmt.Sprintf("%s#%d", key, i), cs)
			fa := ix.AnalyzeTrace(f, faulty)
			if o == inject.NotApplied {
				fa.Outcome = inject.NotApplied
			}
			rec.end(s)
			mu.Lock()
			analyzedAt[i] = time.Now()
			mu.Unlock()
			return fa, nil
		}
		opts = append(opts, inject.WithAnalysis(ix.Clean(), analyze), inject.WithDropTraces())
	}
	c, err := inject.NewCampaign(mk, verify, inject.FaultList{Faults: plain.Faults()}, opts...)
	if err != nil {
		return 0, 0, 0, err
	}
	recs := make([]journal.Record, 0, w.tests)
	for fo, err := range c.Stream(context.Background()) {
		if err != nil {
			return 0, 0, 0, err
		}
		now := time.Now()
		if len(recs) == 0 {
			first = now.Sub(t0)
		}
		if w.analyzed {
			mu.Lock()
			at := analyzedAt[fo.Index]
			mu.Unlock()
			rec.add("campaign.reorder_wait", fmt.Sprintf("%s#%d", key, fo.Index), cs, at, now)
		}
		recs = append(recs, injectRecord(fo))
	}
	total = time.Since(t0)
	w.e.observe(key, digestRecords(recs, false))
	return len(recs), first, total, nil
}

// replay re-executes every distinct campaign layer by layer, on nproc
// workers, and checks its digest against the timed runs'. Analyzed
// campaigns are also checked against a plain campaign over the same faults:
// analysis must not change outcomes.
func (w *inproc) replay(rp *replayer) error {
	type job struct{ k, a int }
	jobs := make(chan job)
	var mu sync.Mutex
	replayed := map[string]bool{}
	var firstErr error
	var wg sync.WaitGroup
	for range w.e.nproc {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := &replayer{rec: rp.rec}
			for j := range jobs {
				key, err := w.replayOne(own, j.k, j.a)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if key != "" {
					replayed[key] = true
				}
				mu.Unlock()
			}
			mu.Lock()
			rp.ctr.add(own.ctr)
			mu.Unlock()
		}()
	}
	for k := 0; k < w.sets; k++ {
		for a := range w.ans {
			jobs <- job{k, a}
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	for _, key := range w.e.unchecked(replayed) {
		w.e.check.fail("campaign %s ran but was never replayed", key)
	}
	return nil
}

// replayOne replays campaign (k, a) and returns its key once its digest was
// compared.
func (w *inproc) replayOne(rp *replayer, k, a int) (string, error) {
	an := w.ans[a]
	key := w.key(k, a)
	c, err := w.build(k, a)
	if err != nil {
		return "", err
	}
	job := injectJob{id: key, app: an.App, faults: c.Faults(), prog: an.Prog}
	if w.analyzed {
		if job.ix, err = an.Index(); err != nil {
			return "", err
		}
	}
	recs, err := rp.injectCampaign(job)
	if !w.e.check.expect(err == nil, "replay %s: %v", key, err) {
		return "", nil
	}
	dg := digestRecords(recs, false)
	w.e.expect(key, dg)
	if w.analyzed {
		pc, err := an.NewCampaign(w.population(a), append(w.options(k, a), inject.WithParallelism(1))...)
		if err != nil {
			return "", err
		}
		var plain []journal.Record
		for fo, err := range pc.Stream(context.Background()) {
			if err != nil {
				w.e.check.fail("plain campaign %s: %v", key, err)
				break
			}
			plain = append(plain, injectRecord(fo))
		}
		w.e.check.expect(digestRecords(plain, false) == dg, "campaign %s: analyzed outcomes differ from the plain campaign's", key)
	}
	return key, nil
}

func (w *inproc) extra() map[string]float64 { return nil }

func (w *inproc) input() string {
	pop := "whole-program untraced"
	if w.analyzed {
		pop = "region-internal (first instance of each app's first region) analyzed"
	}
	return fmt.Sprintf("%d apps x %d fault sets x %d faults = %d distinct faults, %s, parallelism %d",
		len(w.names), w.sets, w.tests, len(w.names)*w.sets*w.tests, pop, w.e.nproc)
}
