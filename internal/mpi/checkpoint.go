package mpi

import (
	"context"
	"fmt"
	"sort"

	"fliptracker/internal/campaign"
	"fliptracker/internal/interp"
)

// DefaultMaxWorldCheckpoints bounds the world snapshots the checkpointed
// scheduler keeps live when WithMaxCheckpoints is unset. A world snapshot is
// a copy-on-write page table per rank (O(ranks × pages) pointers; dirty
// pages are shared between neighboring checkpoints), so the bound is a
// backstop against pathological cut counts rather than a memory-thinning
// knob: at the default, every collective round a fault wants gets its own
// checkpoint and the even-thinning path below is effectively retired.
const DefaultMaxWorldCheckpoints = 256

// worldPlan is the checkpointed MPI scheduler's shared state: the world
// snapshots laid down by one forward pass of the fault-free world, and the
// per-fault assignment of the nearest snapshot at or before its step on the
// injected rank.
type worldPlan struct {
	snaps []*WorldSnapshot
	// assign[i-first] is the snapshot index of fault i of the window
	// starting at first; -1 replays from step 0.
	first  int
	assign []int
}

// planWorldCheckpoints shares fault-free world-prefix work across
// injections — PR 1's checkpointed scheduler ported to the multi-rank path.
// For a fault at dynamic step N of the injected rank, every rank's execution
// up to the world cut preceding N is identical to the fault-free world; the
// direct scheduler re-executes all of it for every injection. Here the
// candidate cuts are the clean world's collective boundaries (Result.Cuts —
// the only points where a consistent world snapshot is cheap: no rank inside
// a primitive, no collective state in flight), one forward pass replays the
// fault-free world pausing at each cut some fault wants (at most budget of
// them, evenly thinned when faults want more), and each injection restores
// the nearest snapshot at or before its fault step and resumes from there.
//
// Because restored worlds are bit-identical to direct replays (the world
// substrate is deterministic and WorldSnapshot captures all of it) and the
// fault stream is drawn before scheduling, the outcomes — and thus the
// Result — are exactly those of the direct scheduler for the same seed.
//
// Direct replay is the plan with no snapshots, every fault assigned -1:
// the scheduler ScheduleDirect, analyzed campaigns without stitchable
// (per-rank monotonic) clean traces, and worlds where checkpointing cannot
// help — no collective rounds, ragged cut counts, or every fault before the
// first cut.
//
// Only the window [first, last) is planned: indices outside it belong to
// other shards (or a journal's replayed prefix) and never run here, so they
// neither request cuts nor need assignments — a sharded campaign's forward
// passes each cover just their own window's fault steps. Statically pruned
// faults (dead in live) never replay a world, so they request no cuts
// either.
func (c *Campaign) planWorldCheckpoints(ctx context.Context, faults []interp.Fault, live campaign.Mask, first, last int) (*worldPlan, error) {
	plan := &worldPlan{first: first, assign: make([]int, last-first)}
	for i := range plan.assign {
		plan.assign[i] = -1
	}
	if c.scheduler != ScheduleCheckpointed || (c.analyze != nil && !c.stitch) || len(c.clean.Cuts) != c.base.Ranks {
		// The last case is an adopted clean Result without cut logs
		// (WithClean on a Result assembled outside mpi.Run, e.g. rebuilt
		// from persisted traces): no boundaries to cut at.
		return plan, nil
	}
	rounds := len(c.clean.Cuts[c.base.FaultRank])
	for _, cl := range c.clean.Cuts {
		if len(cl) < rounds {
			rounds = len(cl)
		}
	}
	if rounds == 0 {
		return plan, nil
	}
	faultCuts := c.clean.Cuts[c.base.FaultRank][:rounds]

	// bestRound is the last cut at or before the fault's step on the
	// injected rank (-1: the fault precedes every cut).
	bestRound := func(step uint64) int {
		return sort.Search(rounds, func(k int) bool { return faultCuts[k] > step }) - 1
	}
	want := make(map[int]bool, rounds)
	for i := first; i < last; i++ {
		if !live.Live(i) {
			continue
		}
		if k := bestRound(faults[i].Step); k >= 0 {
			want[k] = true
		}
	}
	if len(want) == 0 {
		return plan, nil
	}
	desired := make([]int, 0, len(want))
	for k := range want { //ftlint:ok keys collected then sorted below
		desired = append(desired, k)
	}
	sort.Ints(desired)

	budget := c.maxCheckpoints
	if budget <= 0 {
		budget = DefaultMaxWorldCheckpoints
	}
	selected := desired
	if len(desired) > budget {
		// Thin evenly, always keeping the last cut (late-window faults gain
		// the most from it); dropped cuts just lengthen some faults' resumed
		// replay distance, never change results.
		selected = make([]int, 0, budget)
		for i := 0; i < budget; i++ {
			k := desired[i*len(desired)/budget]
			if len(selected) == 0 || k > selected[len(selected)-1] {
				selected = append(selected, k)
			}
		}
		if last := desired[len(desired)-1]; selected[len(selected)-1] != last {
			selected[len(selected)-1] = last
		}
	}

	snaps, err := SnapshotWorld(ctx, c.prog, c.base, c.clean, selected)
	if err != nil {
		return nil, fmt.Errorf("mpi: world checkpoints: %w", err)
	}
	plan.snaps = snaps
	for i := first; i < last; i++ {
		if !live.Live(i) {
			continue
		}
		step := faults[i].Step
		// The nearest SELECTED cut at or before the fault.
		for si := len(selected) - 1; si >= 0; si-- {
			if faultCuts[selected[si]] <= step {
				plan.assign[i-first] = si
				break
			}
		}
	}
	return plan, nil
}

// runPlanned executes one injected world under the planned scheduler:
// restored from its assigned world snapshot when one exists, replayed from
// step 0 otherwise (direct scheduler, no cuts, or a fault before the first
// cut).
func (c *Campaign) runPlanned(i int, f *interp.Fault, plan *worldPlan) (*Result, error) {
	mode := c.worldMode()
	k := plan.assign[i-plan.first]
	if k < 0 {
		return c.runWorld(f, mode)
	}
	snap := plan.snaps[k]
	cfg := c.base
	cfg.Mode = mode
	cfg.Fault = f
	cfg.Replay = c.clean.Recording
	var prime func(m *interp.Machine, rank int)
	if mode == interp.TraceFull {
		// Analyzed campaign: resume traced, seeding each rank's record
		// buffer with its clean prefix (the records a from-step-0 traced run
		// laid down before the cut — the pre-fault prefix is fault-free and
		// deterministic), so the stitched per-rank traces are byte-identical
		// to direct traced replays. planWorldCheckpoints only lays
		// checkpoints for analyzed campaigns when every rank's clean records
		// are stitchable (c.stitch).
		prime = func(m *interp.Machine, rank int) {
			recs := &c.clean.Ranks[rank].Trace.Recs
			m.PrimeTrace(recs.Before(snap.CutStep(rank)), uint64(recs.Len())+64)
		}
	}
	return RestoreWorld(c.prog, cfg, snap, prime)
}
