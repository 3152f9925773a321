// Package coord is the shard coordinator: it splits one campaign's
// fault-index space into contiguous shards, runs them concurrently, and
// merges the ordered per-shard streams back into the single deterministic
// fault-index-ordered stream a plain Run would have produced.
//
// A coordinator is the shared campaign driver (internal/campaign.Shell) run
// with k shards: the same journal open and replay, the same commit before
// every delivered outcome, the same progress and early-stop step. The merge
// is exact, not approximate: faults are pre-drawn from one seeded stream,
// per-index outcomes are execution-placement-invariant, and the
// early-stopping rule depends only on aggregate counts — so the rule applied
// to the merged stream stops at exactly the index a single-process run
// would. For a fixed seed, Run and Stream are byte-identical to the
// underlying campaign's own Run and Stream at any shard count.
//
// Shards execute in process, one goroutine each. The shard boundary is a
// plain (first, last) window against an immutable campaign (the engines'
// StreamWindow), so out-of-process or remote workers can run shards later —
// nothing in the merge depends on shards sharing an address space.
//
// A coordinator is durable the same way the engines are: WithJournal
// commits the merged stream under the campaign's own journal identity, so a
// killed sharded campaign resumes — by coordinator or by the plain engine —
// from the last committed outcome.
package coord

import (
	"context"
	"fmt"
	"iter"

	"fliptracker/internal/campaign"
	"fliptracker/internal/inject"
	"fliptracker/internal/journal"
	"fliptracker/internal/mpi"
)

// Shard is one contiguous window [First, Last) of a campaign's fault-index
// space.
type Shard = campaign.Shard

// Plan splits the index space [0, tests) into at most shards contiguous,
// non-empty, near-equal windows in index order. Fewer shards come back when
// tests < shards; no shards when tests <= 0. Concatenating the windows
// always reproduces [0, tests) exactly — the invariant the merge builds on.
func Plan(tests, shards int) []Shard { return campaign.Plan(tests, shards) }

// Campaign is the coordinator's handle on one engine campaign, whichever
// engine is behind it. Build one with Inject or MPI.
type Campaign[O any] struct{ sh *campaign.Shell[O] }

// Header returns the underlying campaign's journal identity.
func (h Campaign[O]) Header() journal.Header { return h.sh.JournalHeader() }

// Inject adapts a single-process campaign for sharded execution. The
// campaign must be unjournaled (the coordinator journals the merged stream;
// see WithJournal) and must draw at least one fault.
func Inject(c *inject.Campaign) (Campaign[inject.FaultOutcome], error) { return handle(&c.Shell) }

// MPI adapts a multi-rank campaign for sharded execution, under the same
// constraints as Inject. World outcomes keep their cross-rank propagation
// classification through the journal, exactly as mpi.WithJournal does.
func MPI(c *mpi.Campaign) (Campaign[mpi.WorldOutcome], error) { return handle(&c.Shell) }

func handle[O any](sh *campaign.Shell[O]) (Campaign[O], error) {
	if sh.Journaled() {
		return Campaign[O]{}, fmt.Errorf("coord: campaign carries its own journal; journal the merged stream with coord.WithJournal instead")
	}
	if sh.Tests() <= 0 {
		return Campaign[O]{}, fmt.Errorf("coord: campaign draws no faults")
	}
	return Campaign[O]{sh}, nil
}

// config carries the engine-independent coordinator knobs.
type config struct {
	shards      int
	journalPath string
	progress    func(done, total int)
}

// Option configures a Coordinator at construction time.
type Option func(*config)

// WithShards sets how many contiguous windows the fault-index space is
// split into; the default is one. Shard count is result-invariant: any
// count yields the identical merged stream.
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// WithJournal makes the coordinated campaign durable: the merged stream is
// committed (written + fsync'd) to an append-only checksummed journal at
// path before each outcome is delivered, under the underlying campaign's
// own journal identity. Resuming validates the header (journal.ErrMismatch
// on any difference), replays the committed prefix, and shards only the
// remaining index range — and because the identity is the engine's own, a
// journal written by the coordinator resumes under plain inject/mpi
// WithJournal and vice versa.
func WithJournal(path string) Option { return func(c *config) { c.journalPath = path } }

// WithProgress registers a callback invoked after each merged outcome with
// the number delivered so far (including any journal-replayed prefix) and
// the planned total. It is called sequentially in fault-index order.
func WithProgress(fn func(done, total int)) Option { return func(c *config) { c.progress = fn } }

// Runner is the engine-erased view of a coordinator — what consumers that
// multiplex campaigns across engines (the campaign service,
// internal/server) hold: the campaign's identity and size, its aggregate
// Run, and the merged stream in durable journal representation. Both
// Coordinator instantiations satisfy it.
type Runner interface {
	Tests() int
	Header() journal.Header
	Run(ctx context.Context) (inject.Result, error)
	Records(ctx context.Context) iter.Seq2[journal.Record, error]
}

// Coordinator executes one campaign as a set of shards and re-delivers the
// merged, fault-index-ordered outcome stream through the shell's Run,
// Stream and Records. Build it with New; a Coordinator is immutable after
// construction and safe to run multiple times.
type Coordinator[O any] struct {
	*campaign.Shell[O]
}

// New builds a coordinator over a campaign handle.
func New[O any](h Campaign[O], opts ...Option) (*Coordinator[O], error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.shards < 0 {
		return nil, fmt.Errorf("coord: negative shard count")
	}
	return &Coordinator[O]{campaign.Sharded(h.sh, cfg.shards, cfg.journalPath, cfg.progress)}, nil
}

// Header returns the coordinated campaign's journal identity.
func (co *Coordinator[O]) Header() journal.Header { return co.JournalHeader() }
