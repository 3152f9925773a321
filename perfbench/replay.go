package main

import (
	"context"
	"fmt"
	"iter"
	"os"
	"slices"
	"sort"
	"time"

	"fliptracker/internal/acl"
	"fliptracker/internal/apps"
	"fliptracker/internal/coord"
	"fliptracker/internal/core"
	"fliptracker/internal/dddg"
	"fliptracker/internal/inject"
	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/irstatic"
	"fliptracker/internal/journal"
	"fliptracker/internal/mpi"
	"fliptracker/internal/patterns"
	"fliptracker/internal/trace"
)

// counters are exact work counts of the layer-by-layer replay. They depend
// only on the run seed, so they must repeat exactly across runs of one seed;
// a drifting count is a determinism bug.
type counters struct {
	Campaigns      int    `json:"campaigns"`
	Faults         uint64 `json:"faults"`
	Steps          uint64 `json:"interp.steps"`
	ForwardSteps   uint64 `json:"interp.forward_steps"`
	Checkpoints    uint64 `json:"interp.checkpoints"`
	HangRuns       uint64 `json:"interp.hang_runs"`
	HangSteps      uint64 `json:"interp.hang_steps"`
	ReplayedSteps  uint64 `json:"inject.replayed_steps"`
	TraceRecords   uint64 `json:"trace.records"`
	RegionsTouched uint64 `json:"core.regions_touched"`
	Prunable       uint64 `json:"irstatic.prunable"`
	Pruned         uint64 `json:"irstatic.pruned"`
	JournalRecords uint64 `json:"journal.records"`
	Worlds         uint64 `json:"mpi.worlds"`
}

func (c *counters) add(o counters) {
	c.Campaigns += o.Campaigns
	c.Faults += o.Faults
	c.Steps += o.Steps
	c.ForwardSteps += o.ForwardSteps
	c.Checkpoints += o.Checkpoints
	c.HangRuns += o.HangRuns
	c.HangSteps += o.HangSteps
	c.ReplayedSteps += o.ReplayedSteps
	c.TraceRecords += o.TraceRecords
	c.RegionsTouched += o.RegionsTouched
	c.Prunable += o.Prunable
	c.Pruned += o.Pruned
	c.JournalRecords += o.JournalRecords
	c.Worlds += o.Worlds
}

// replayer re-executes campaigns layer by layer through each layer's public
// functions, in the order the engines call them: the checkpoint forward pass
// (RunUntil, Snapshot), then per fault Restore, PrimeTrace and Resume, the
// app's Verify, and for analyzed faults acl.Analyze,
// dddg.CompareRegionWith and patterns.Detector.Detect; MPI worlds go
// through SnapshotWorld and RestoreWorld. Each call is a span when rec is
// non-nil. The replay's outcomes must digest equal to the timed campaign's,
// so the spans describe the same work the timed run did.
type replayer struct {
	rec *recorder
	ctr counters
	// shardMS holds, per sharded campaign, each shard's StreamWindow time.
	shardMS [][]float64
}

// timed runs fn inside a span.
func (rp *replayer) timed(name, id string, parent int, fn func()) {
	s := rp.rec.begin(name, id, parent)
	fn()
	rp.rec.end(s)
}

// injectJob is one single-process campaign to replay.
type injectJob struct {
	id     string
	app    *apps.App
	faults []interp.Fault
	pruner *irstatic.Pruner
	// ix makes the job analyzed: traced runs plus the full analysis.
	ix   *core.CleanIndex
	prog *ir.Program
	// first and last bound the fault-index window one shard runs; a zero
	// last means the whole campaign.
	first, last int
}

// clampWindow resolves a job's fault-index window.
func clampWindow(first, last, n int) (int, int) {
	if last <= 0 || last > n {
		last = n
	}
	return first, last
}

// injectCampaign replays the job's window of a campaign under the
// checkpointed scheduler and returns its outcome records in index order.
func (rp *replayer) injectCampaign(job injectJob) ([]journal.Record, error) {
	cs := rp.rec.begin("replay.campaign", job.id, -1)
	defer rp.rec.end(cs)
	rp.ctr.Campaigns++
	n := len(job.faults)
	first, last := clampWindow(job.first, job.last, n)
	live := make([]bool, n)
	for i := first; i < last; i++ {
		live[i] = true
	}
	if job.pruner != nil {
		rp.ctr.Prunable += uint64(last - first)
		rp.timed("irstatic.classify", job.id, cs, func() {
			for i := first; i < last; i++ {
				live[i] = job.pruner.Classify(job.faults[i]) == irstatic.Live
			}
		})
	}

	// The forward pass: analyzed campaigns only plan when the clean trace
	// can be stitched (monotonic record steps), exactly as the engine does.
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	var snaps []*interp.Snapshot
	if job.ix == nil || trace.StepsMonotonic(job.ix.Clean().Recs) {
		var err error
		ps := rp.rec.begin("inject.plan", job.id, cs)
		snaps, err = rp.plan(ps, job, live, assign)
		rp.rec.end(ps)
		if err != nil {
			return nil, err
		}
	}

	outs := make([]journal.Record, 0, last-first)
	for i := first; i < last; i++ {
		f := job.faults[i]
		o, err := rp.injectFault(cs, job, i, f, live[i], snaps, assign[i])
		if err != nil {
			return nil, fmt.Errorf("replay %s fault %d: %w", job.id, i, err)
		}
		outs = append(outs, journal.Record{Index: uint64(i), Outcome: uint8(o), Fault: f})
	}
	rp.ctr.Faults += uint64(last - first)
	return outs, nil
}

// plan lays the checkpoints one fault-free forward pass passes through:
// the window's live faults sorted by step, a snapshot wherever the next
// fault is more than the budget interval past the last one. Faults outside
// the window are never live.
func (rp *replayer) plan(parent int, job injectJob, live []bool, assign []int) ([]*interp.Snapshot, error) {
	var order []int
	for i, ok := range live {
		if ok {
			order = append(order, i)
		}
	}
	if len(order) == 0 {
		return nil, nil
	}
	sort.Slice(order, func(a, b int) bool {
		fa, fb := job.faults[order[a]].Step, job.faults[order[b]].Step
		if fa != fb {
			return fa < fb
		}
		return order[a] < order[b]
	})
	interval := job.faults[order[len(order)-1]].Step / inject.DefaultMaxCheckpoints
	base, err := rp.newMachine(parent, job)
	if err != nil {
		return nil, err
	}
	base.Mode = interp.TraceOff
	var snaps []*interp.Snapshot
	baseLive := true
	for _, idx := range order {
		fstep := job.faults[idx].Step
		if baseLive && (len(snaps) == 0 || fstep-snaps[len(snaps)-1].Step() > interval) {
			var paused bool
			rp.timed("interp.run_until", job.id, parent, func() { paused, err = base.RunUntil(fstep) })
			if err != nil {
				return nil, err
			}
			if paused {
				var snap *interp.Snapshot
				rp.timed("interp.snapshot", job.id, parent, func() { snap, err = base.Snapshot() })
				if err != nil {
					return nil, err
				}
				snaps = append(snaps, snap)
			} else {
				baseLive = false
			}
		}
		if len(snaps) > 0 {
			assign[idx] = len(snaps) - 1
		}
	}
	rp.ctr.ForwardSteps += base.Steps()
	rp.ctr.Steps += base.Steps()
	rp.ctr.Checkpoints += uint64(len(snaps))
	return snaps, nil
}

func (rp *replayer) newMachine(parent int, job injectJob) (*interp.Machine, error) {
	var m *interp.Machine
	var err error
	rp.timed("apps.new_machine", job.id, parent, func() { m, err = job.app.NewMachine() })
	return m, err
}

// injectFault runs one injection the way the engine's worker does and
// classifies it (inject's §II-A rule: crash or hang, else verify, with an
// unfired fault counting NotApplied).
func (rp *replayer) injectFault(parent int, job injectJob, i int, f interp.Fault, live bool, snaps []*interp.Snapshot, si int) (inject.Outcome, error) {
	id := fmt.Sprintf("%s#%d", job.id, i)
	fs := rp.rec.begin("replay.fault", id, parent)
	defer rp.rec.end(fs)
	if !live {
		rp.ctr.Pruned++
		if job.pruner.Classify(f) == irstatic.Benign {
			return inject.Success, nil
		}
		return inject.NotApplied, nil
	}
	m, err := rp.newMachine(fs, job)
	if err != nil {
		return 0, err
	}
	full := job.ix != nil
	m.Mode = interp.TraceOff
	var hint uint64
	if full {
		m.Mode = interp.TraceFull
		hint = uint64(job.ix.Clean().Recs.Len()) + 64
	}
	m.Fault = &f
	start := uint64(0)
	var tr *trace.Trace
	if si >= 0 {
		snap := snaps[si]
		rp.timed("interp.restore", id, fs, func() { err = m.Restore(snap) })
		if err != nil {
			return 0, err
		}
		start = snap.Step()
		if full {
			rp.timed("trace.prime", id, fs, func() { m.PrimeTrace(cleanPrefix(job.ix.Clean(), start), hint) })
		}
		rp.timed("interp.resume", id, fs, func() { tr, err = m.Resume() })
	} else {
		m.TraceHint = hint
		rp.timed("interp.run", id, fs, func() { tr, err = m.Run() })
	}
	if err != nil {
		return 0, err
	}
	executed := m.Steps() - start
	rp.ctr.Steps += executed
	rp.ctr.ReplayedSteps += min(f.Step, m.Steps()) - min(start, f.Step)
	if tr.Status == trace.RunHang {
		rp.ctr.HangRuns++
		rp.ctr.HangSteps += executed
	}
	o := rp.classify(fs, id, job.app, m, tr)
	if full {
		rp.ctr.TraceRecords += uint64(tr.Recs.Len())
		// Analysis cannot change an outcome, so only the traced run, whose
		// spans time it, pays for it.
		if rp.rec != nil {
			rp.analyze(fs, id, job, tr)
		}
	}
	return o, nil
}

func (rp *replayer) classify(parent int, id string, app *apps.App, m *interp.Machine, tr *trace.Trace) inject.Outcome {
	switch tr.Status {
	case trace.RunCrashed, trace.RunHang:
		return inject.Crashed
	}
	var ok bool
	rp.timed("apps.verify", id, parent, func() { ok = app.Verify(tr) })
	switch {
	case !ok:
		return inject.Failed
	case !m.FaultApplied:
		return inject.NotApplied
	}
	return inject.Success
}

// analyze is the per-fault analysis of an analyzed campaign, call by call:
// the ACL table, then for every clean region instance the corruption
// touched, the DDDG comparison and the pattern detectors.
func (rp *replayer) analyze(parent int, id string, job injectJob, faulty *trace.Trace) {
	clean := job.ix.Clean()
	var res *acl.Result
	rp.timed("acl.analyze", id, parent, func() { res = acl.Analyze(faulty, clean) })
	if res.InjectionIndex < 0 {
		return
	}
	fIdx := trace.NewSpanIndex(faulty)
	det := patterns.NewDetector(job.prog, faulty, clean, res)
	var touched []int32
	for _, cs := range job.ix.Spans() {
		fsp, ok := fIdx.Instance(cs.RegionID, cs.Instance)
		if !ok || !res.TouchesSpan(fsp) {
			continue
		}
		g := job.ix.Graph(cs)
		rp.timed("dddg.compare", id, parent, func() { dddg.CompareRegionWith(g, faulty, fsp) })
		rp.timed("patterns.detect", id, parent, func() { det.Detect(fsp) })
		rp.ctr.RegionsTouched++
		if !slices.Contains(touched, cs.RegionID) {
			touched = append(touched, cs.RegionID)
		}
	}
	// Repeated additions across the instances of each touched region.
	for _, r := range touched {
		if spans := fIdx.Instances(r); len(spans) >= 2 {
			rp.timed("patterns.repeated_additions", id, parent, func() { patterns.DetectRepeatedAdditionsInSpans(faulty, clean, spans) })
		}
	}
}

// cleanPrefix returns the clean records below step: what a traced run laid
// down before a checkpoint taken there.
func cleanPrefix(clean *trace.Trace, step uint64) trace.Recs {
	recs := &clean.Recs
	k := sort.Search(recs.Len(), func(i int) bool { return recs.Step(i) >= step })
	return recs.Slice(0, k)
}

// mpiJob is one multi-rank campaign to replay.
type mpiJob struct {
	id     string
	ma     *core.MPIAnalyzer
	c      *mpi.Campaign
	pruner *irstatic.Pruner
	// first and last bound the shard window, as for injectJob.
	first, last int
}

// mpiCampaign replays a checkpointed MPI campaign: one SnapshotWorld pass
// over the collective cuts the faults want, then a RestoreWorld (or a
// from-step-0 world) per fault, classified and propagation-labelled.
func (rp *replayer) mpiCampaign(ctx context.Context, job mpiJob) ([]journal.Record, error) {
	cs := rp.rec.begin("replay.campaign", job.id, -1)
	defer rp.rec.end(cs)
	rp.ctr.Campaigns++
	faults := job.c.Faults()
	first, last := clampWindow(job.first, job.last, len(faults))
	clean := job.ma.Clean()
	ranks, fr := job.c.Ranks(), job.c.FaultRank()
	base := mpi.Config{
		Ranks: ranks, Seed: apps.DefaultSeed, FaultRank: fr,
		ExtraBind: func(m *interp.Machine, _ int) error { return apps.BindMathHosts(m) },
	}
	live := func(f interp.Fault) bool { return job.pruner == nil || job.pruner.Classify(f) == irstatic.Live }
	if job.pruner != nil {
		rp.ctr.Prunable += uint64(last - first)
	}

	// Cut selection, as the engine's world planner makes it: the last
	// collective cut at or before each live fault, evenly thinned to the
	// budget.
	rounds := len(clean.Cuts[fr])
	for _, cl := range clean.Cuts {
		rounds = min(rounds, len(cl))
	}
	cuts := clean.Cuts[fr][:rounds]
	want := map[int]bool{}
	for _, f := range faults[first:last] {
		if !live(f) {
			continue
		}
		if k := sort.Search(rounds, func(k int) bool { return cuts[k] > f.Step }) - 1; k >= 0 {
			want[k] = true
		}
	}
	var selected []int
	for k := range want {
		selected = append(selected, k)
	}
	sort.Ints(selected)
	if budget := mpi.DefaultMaxWorldCheckpoints; len(selected) > budget {
		thin := make([]int, 0, budget)
		for i := 0; i < budget; i++ {
			if k := selected[i*len(selected)/budget]; len(thin) == 0 || k > thin[len(thin)-1] {
				thin = append(thin, k)
			}
		}
		thin[len(thin)-1] = selected[len(selected)-1]
		selected = thin
	}
	var snaps []*mpi.WorldSnapshot
	if len(selected) > 0 {
		var err error
		rp.timed("mpi.snapshot_world", job.id, cs, func() {
			snaps, err = mpi.SnapshotWorld(ctx, job.ma.Prog, base, clean, selected)
		})
		if err != nil {
			return nil, err
		}
	}

	verify := func(faulty *mpi.Result) bool {
		for r, rr := range faulty.Ranks {
			if !apps.VerifyOutputs(rr.Trace, clean.Ranks[r].Trace.Output, job.ma.App.Tol) {
				return false
			}
		}
		return true
	}
	outs := make([]journal.Record, 0, last-first)
	for i := first; i < last; i++ {
		f := faults[i]
		id := fmt.Sprintf("%s#%d", job.id, i)
		rec := journal.Record{Index: uint64(i), Fault: f, PropClass: uint8(mpi.Contained)}
		if !live(f) {
			rp.ctr.Pruned++
			rec.Outcome = uint8(inject.NotApplied)
			if job.pruner.Classify(f) == irstatic.Benign {
				rec.Outcome = uint8(inject.Success)
			}
			outs = append(outs, rec)
			continue
		}
		cfg := base
		cfg.Mode = interp.TraceOff
		cfg.Fault = &f
		cfg.Replay = clean.Recording
		si := -1
		for s := len(snaps) - 1; s >= 0; s-- {
			if cuts[selected[s]] <= f.Step {
				si = s
				break
			}
		}
		var faulty *mpi.Result
		var err error
		if si >= 0 {
			rp.timed("mpi.restore_world", id, cs, func() { faulty, err = mpi.RestoreWorld(job.ma.Prog, cfg, snaps[si], nil) })
		} else {
			rp.timed("mpi.run_world", id, cs, func() { faulty, err = mpi.Run(job.ma.Prog, cfg) })
		}
		if err != nil {
			return nil, fmt.Errorf("replay %s world %d: %w", job.id, i, err)
		}
		rp.ctr.Worlds++
		var o inject.Outcome
		rp.timed("apps.verify", id, cs, func() { o = mpi.ClassifyWorld(faulty, fr, verify) })
		prop := mpi.ClassifyPropagation(clean, faulty, fr)
		rec.Outcome, rec.PropClass, rec.PropRanks = uint8(o), uint8(prop.Class), prop.Ranks
		outs = append(outs, rec)
	}
	rp.ctr.Faults += uint64(last - first)
	return outs, nil
}

// journalRecords appends recs to a fresh journal under dir, fsync'd one by
// one as the service's coordinator commits them.
func (rp *replayer) journalRecords(id, path string, h journal.Header, recs []journal.Record) error {
	j, err := journal.Create(path, h)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	for _, r := range recs {
		rp.timed("journal.append", id, -1, func() { err = j.Append(r) })
		if err != nil {
			j.Close()
			return err
		}
	}
	rp.ctr.JournalRecords += uint64(len(recs))
	return j.Close()
}

// shards replays a campaign as the coordinator plans it: StreamWindow over
// each coord.Plan window in turn, concatenated in index order.
func shards[O any](rp *replayer, id string, tests, n int, window func(first, last int) iter.Seq2[O, error], record func(O) journal.Record) ([]journal.Record, error) {
	var recs []journal.Record
	var times []float64
	for k, sh := range coord.Plan(tests, n) {
		start := time.Now()
		s := rp.rec.begin("coord.shard", fmt.Sprintf("%s/shard%d", id, k), -1)
		for o, err := range window(sh.First, sh.Last) {
			if err != nil {
				rp.rec.end(s)
				return nil, err
			}
			recs = append(recs, record(o))
		}
		rp.rec.end(s)
		times = append(times, ms(time.Since(start)))
	}
	rp.shardMS = append(rp.shardMS, times)
	return recs, nil
}
