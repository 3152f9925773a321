// Package mpi is the message-passing substrate of the reproduction: an SPMD
// simulator that runs one interpreter per rank (goroutines) and exposes
// MPI-like host calls to IR programs. It stands in for the MPI runtime of
// the paper's workloads (§IV-A): per-process traces are collected exactly as
// the extended LLVM-Tracer does, message-passing internals stay
// uninstrumented, and record-and-replay (§V-B) pins down the arrival order
// of wildcard receives so faulty runs can be matched against fault-free
// runs.
//
// Campaign is the multi-rank campaign engine: a replayed world is its unit
// of work, with the fault injected into one rank and the cross-rank
// propagation classified alongside the §II-A outcome. Like inject.Campaign
// it embeds the shared campaign shell (internal/campaign) for Run, Stream,
// journaling, early stopping, static pruning and shard windows, and
// supplies only the world checkpoint plan (collective-boundary cuts) and
// the per-world run.
package mpi

import (
	"fmt"
	"sync"

	"fliptracker/internal/interp"
	"fliptracker/internal/ir"
	"fliptracker/internal/trace"
)

// Host function names available to IR programs.
const (
	HostRank         = "mpi_rank"          // () -> rank
	HostSize         = "mpi_size"          // () -> world size
	HostSend         = "mpi_send"          // (dest, addr, count)
	HostRecv         = "mpi_recv"          // (src, addr, count)
	HostRecvAny      = "mpi_recv_any"      // (addr, count) -> src
	HostBarrier      = "mpi_barrier"       // ()
	HostAllreduceSum = "mpi_allreduce_sum" // (addr, count) elementwise f64 sum
)

// DeclareHosts declares every MPI host function on a program, so builders
// can emit the calls before the world exists.
func DeclareHosts(p *ir.Program) {
	p.DeclareHost(HostRank, 0, true)
	p.DeclareHost(HostSize, 0, true)
	p.DeclareHost(HostSend, 3, false)
	p.DeclareHost(HostRecv, 3, false)
	p.DeclareHost(HostRecvAny, 2, true)
	p.DeclareHost(HostBarrier, 0, false)
	p.DeclareHost(HostAllreduceSum, 2, false)
}

// Recording captures the arrival order of wildcard receives per rank, the
// record-and-replay mechanism of §V-B.
type Recording struct {
	// AnySources[rank] lists, in order, the source rank satisfied by each
	// mpi_recv_any call that rank made.
	AnySources [][]int32
}

// Config configures one world run. Validate reports configuration errors;
// Run calls it before launching any rank.
type Config struct {
	// Ranks is the world size (>= 1).
	Ranks int
	// Mode is the per-rank trace mode.
	Mode interp.TraceMode
	// FaultRank selects the rank receiving Fault (ignored if Fault nil).
	FaultRank int
	// Fault is injected into exactly one rank, as in the paper ("we focus
	// on the single process where the fault is injected").
	Fault *interp.Fault
	// Seed seeds each rank's RNG as Seed+rank, keeping ranks decorrelated
	// but runs reproducible.
	Seed uint64
	// Replay, when non-nil, forces wildcard receives to follow a prior
	// recording.
	Replay *Recording
	// StepLimit overrides the default per-rank step limit when nonzero.
	StepLimit uint64
	// TraceHint preallocates per-rank trace buffers (use a prior untraced
	// run's per-rank step count).
	TraceHint uint64
	// ExtraBind, when non-nil, binds additional app hosts on each machine.
	ExtraBind func(m *interp.Machine, rank int) error
}

// Validate checks the configuration before any rank launches.
func (cfg *Config) Validate() error {
	if cfg.Ranks < 1 {
		return fmt.Errorf("mpi: need at least 1 rank")
	}
	if cfg.Fault != nil && (cfg.FaultRank < 0 || cfg.FaultRank >= cfg.Ranks) {
		return fmt.Errorf("mpi: fault rank %d outside world [0, %d)", cfg.FaultRank, cfg.Ranks)
	}
	if cfg.Replay != nil && len(cfg.Replay.AnySources) > cfg.Ranks {
		return fmt.Errorf("mpi: replay recording covers %d ranks, world has %d", len(cfg.Replay.AnySources), cfg.Ranks)
	}
	return nil
}

// RankResult is one rank's outcome.
type RankResult struct {
	Rank  int
	Trace *trace.Trace
	// FaultApplied reports whether this rank's injected fault actually
	// fired — only the rank's machine knows (a completed run whose fault
	// never fired is indistinguishable from a tolerated one by trace alone).
	// Always false on ranks that received no fault.
	FaultApplied bool
}

// Result is a completed world run.
type Result struct {
	Ranks []RankResult
	// Recording is the wildcard-receive log (always captured).
	Recording *Recording
	// Cuts[rank][k] is rank's machine step immediately after its k-th
	// collective (barrier or allreduce) returned — the world's consistent
	// cut points. A collective completes at one world-wide moment, so
	// pausing every rank at Cuts[rank][k] yields a consistent cut: any
	// receive before a rank's cut is matched by a send before the sender's
	// cut, and only point-to-point messages crossing the boundary are in
	// flight. World snapshots (SnapshotWorld) are taken at these cuts. On a
	// clean world every rank has the same number of cuts (every rank joins
	// every round); crashed worlds may record ragged prefixes.
	Cuts [][]uint64
}

// Status returns the worst status across ranks (crash dominates hang
// dominates ok) — an MPI job fails if any rank fails.
func (r *Result) Status() trace.RunStatus {
	worst := trace.RunOK
	for _, rr := range r.Ranks {
		switch rr.Trace.Status {
		case trace.RunCrashed:
			return trace.RunCrashed
		case trace.RunHang:
			worst = trace.RunHang
		}
	}
	return worst
}

type message struct {
	src  int
	data []ir.Word
}

type rankState struct {
	inbox   chan message
	pending map[int][]message
	anyLog  []int32
	anyNext int      // replay cursor
	cutLog  []uint64 // machine step after each completed collective
}

// waitKind classifies what a blocked rank is waiting inside.
type waitKind uint8

const (
	waitNone waitKind = iota
	// waitInbox: blocked in awaitInbox — the rank consumes any message that
	// lands in its inbox and re-evaluates its wait.
	waitInbox
	// waitCollective: blocked in an allreduce round — deaf to its inbox
	// until the round completes.
	waitCollective
)

type world struct {
	size   int
	ranks  []*rankState
	replay *Recording

	// allreduce barrier state. Contributions are kept per rank and reduced
	// in rank index order once the round is complete, so the floating-point
	// sum is independent of arrival order — replayed worlds stay
	// bit-identical, extending the §V-B record-and-replay guarantee from
	// wildcard receives to collectives.
	mu    sync.Mutex
	cond  *sync.Cond
	parts [][]float64 // parts[rank] is rank's current-round contribution
	bufN  int
	gen   uint64
	// exited[rank] is set when a rank's goroutine ends (normally or not):
	// it will never send a message or contribute to a collective again, so
	// peers blocked on it fail deterministically — a collective round
	// missing a dead rank's contribution aborts, a receive from an exited
	// rank that sent nothing fails, and only those; a round every rank
	// contributed to still completes, whenever the exit is noticed.
	exited map[int]bool
	// exitCh is closed and replaced on every rank exit, waking blocked
	// receivers so they re-evaluate whether their peer can still deliver.
	exitCh chan struct{}
	// blocked counts ranks waiting inside a world primitive, waiting records
	// what each is waiting inside, and inFlight / inFlightTo[rank] count
	// sent-but-undelivered messages (total and per destination). When every
	// live rank is blocked and no undelivered message can still be consumed,
	// no event can ever occur again — a global deadlock (e.g. a corrupted
	// rank stuck in recv while clean ranks wait for it in a collective).
	// That terminal configuration is a deterministic fact of the program, so
	// detecting it and failing every blocked rank keeps faulty worlds
	// deterministic AND terminating. See maybeDeadlockLocked for the
	// wait-for-graph rule that decides "can still be consumed".
	blocked    int
	waiting    []waitKind
	inFlight   int
	inFlightTo []int
	deadlocked bool
	// result holds the completed round's sums. It is only replaced when a
	// round completes, which cannot happen before every waiter of the
	// previous round has read it (each reader holds mu while reading).
	result []float64
}

var errAborted = fmt.Errorf("mpi: world deadlocked (every live rank blocked on another)")

func newWorld(size int, replay *Recording) *world {
	w := &world{
		size:       size,
		replay:     replay,
		parts:      make([][]float64, size),
		exited:     make(map[int]bool),
		exitCh:     make(chan struct{}),
		waiting:    make([]waitKind, size),
		inFlightTo: make([]int, size),
	}
	w.cond = sync.NewCond(&w.mu)
	for i := 0; i < size; i++ {
		w.ranks = append(w.ranks, &rankState{
			inbox:   make(chan message, 1024),
			pending: make(map[int][]message),
		})
	}
	return w
}

// rankExit publishes that rank's goroutine ended (normally or not). Every
// send the rank made completed before this call, so once a peer observes the
// exit, all of the rank's messages are already in their destination inboxes.
// There is deliberately no world-wide kill on failure: each remaining rank
// runs to its own deterministic conclusion — completion, its own fault, or a
// dependency that can never be satisfied — so per-rank traces of a crashed
// world are identical on every replay.
func (w *world) rankExit(rank int) {
	w.mu.Lock()
	w.exited[rank] = true
	close(w.exitCh)
	w.exitCh = make(chan struct{})
	w.cond.Broadcast()
	w.mu.Unlock()
	// Messages stranded in the dead rank's inbox can never be received;
	// retire their in-flight counts so the deadlock detector still sees a
	// quiescent world (an unretired count would mask a real deadlock), then
	// re-evaluate: this exit may leave only blocked ranks behind.
	w.drainDead(rank)
	w.mu.Lock()
	w.maybeDeadlockLocked()
	w.mu.Unlock()
}

// drainDead discards every message queued for an exited rank, retiring the
// in-flight counts. Safe to call from any goroutine (it touches only the
// channel and the counters, not the dead rank's pending map), and safe to
// call repeatedly — senders that race a peer's exit call it again after
// enqueueing, so a message landing between the exit's drain and the send's
// completion is still retired by whichever drain runs last.
func (w *world) drainDead(rank int) {
	for {
		select {
		case <-w.ranks[rank].inbox:
			w.mu.Lock()
			w.inFlight--
			w.inFlightTo[rank]--
			w.mu.Unlock()
		default:
			return
		}
	}
}

// maybeDeadlockLocked declares a global deadlock when every live rank is
// blocked in a primitive and no undelivered message can ever be consumed,
// waking everyone so they fail deterministically. Returns whether the world
// is (now) deadlocked. Callers must hold mu.
//
// This is a wait-for-graph check collapsed to its one decidable edge: with
// every live rank blocked, the only event that can still occur is an
// inbox-waiter draining an undelivered message (it wakes, queues the
// message, and re-evaluates — possibly unblocking, possibly re-blocking with
// the deadlock check re-run). A message bound for a rank waiting in a
// collective is stranded: collective waiters are deaf to their inboxes, and
// the round they wait on cannot complete while its missing contributors are
// blocked elsewhere. Messages bound for exited ranks are equally dead
// (drainDead retires their counts). So partial wait-for cycles among live
// ranks are terminal even when undelivered messages remain for uninvolved
// parties — previously such worlds (cycle + a message stranded at a
// collective-blocked rank) hung forever because any nonzero in-flight count
// vetoed the deadlock declaration.
func (w *world) maybeDeadlockLocked() bool {
	if w.deadlocked {
		return true
	}
	if w.blocked == 0 || w.blocked != w.size-len(w.exited) {
		return false
	}
	for r := 0; r < w.size; r++ {
		if w.inFlightTo[r] > 0 && w.waiting[r] == waitInbox {
			return false // r will wake, drain, and re-evaluate
		}
	}
	w.deadlocked = true
	close(w.exitCh) // wake blocked receivers
	w.exitCh = make(chan struct{})
	w.cond.Broadcast() // wake collective waiters
	return true
}

// abort marks the world dead, failing every rank currently blocked (or about
// to block) in a world primitive with the deterministic abort error. It is
// the teardown path for abandoned worlds — e.g. a snapshot forward pass
// cancelled mid-phase — not part of normal execution, which only ever aborts
// through maybeDeadlockLocked.
func (w *world) abort() {
	w.mu.Lock()
	if !w.deadlocked {
		w.deadlocked = true
		close(w.exitCh)
		w.exitCh = make(chan struct{})
		w.cond.Broadcast()
	}
	w.mu.Unlock()
}

// peerState snapshots whether rank has exited and whether the world is
// deadlocked, plus the channel that will signal the next membership change.
// Callers snapshot BEFORE draining their inbox: if the snapshot says exited,
// every message that rank ever sent is already drainable, making "exited and
// nothing pending" a deterministic fact.
func (w *world) peerState(rank int) (exited, dead bool, next chan struct{}) {
	w.mu.Lock()
	exited, dead, next = w.exited[rank], w.deadlocked, w.exitCh
	w.mu.Unlock()
	return exited, dead, next
}

// othersExited reports whether every rank but self has exited.
func (w *world) othersExited(self int) (all, dead bool, next chan struct{}) {
	w.mu.Lock()
	all = true
	for r := 0; r < w.size; r++ {
		if r != self && !w.exited[r] {
			all = false
			break
		}
	}
	dead, next = w.deadlocked, w.exitCh
	w.mu.Unlock()
	return all, dead, next
}

func (w *world) send(src, dst int, data []ir.Word) error {
	if dst < 0 || dst >= w.size {
		return fmt.Errorf("mpi: send to invalid rank %d", dst)
	}
	cp := make([]ir.Word, len(data))
	copy(cp, data)
	w.mu.Lock()
	w.inFlight++
	w.inFlightTo[dst]++
	w.mu.Unlock()
	m := message{src: src, data: cp}
	for {
		exited, dead, exitCh := w.peerState(dst)
		select {
		case w.ranks[dst].inbox <- m:
			w.retireIfDead(dst)
			return nil
		default:
		}
		// Inbox full: an exited receiver will never drain it, and in a dead
		// (deadlocked or aborted) world nobody will.
		if exited || dead {
			w.mu.Lock()
			w.inFlight--
			w.inFlightTo[dst]--
			w.mu.Unlock()
			if dead {
				return errAborted
			}
			return fmt.Errorf("mpi: send to rank %d, which exited with a full inbox", dst)
		}
		select {
		case w.ranks[dst].inbox <- m:
			w.retireIfDead(dst)
			return nil
		case <-exitCh:
		}
	}
}

// retireIfDead re-checks a send target after enqueueing: if dst exited
// meanwhile, the message (and any others stranded with it) will never be
// received, so their in-flight counts are retired immediately instead of
// masking a later deadlock. Delivery to a dead inbox is indistinguishable
// from delivery just before the death on every replay, so this keeps
// crashed worlds deterministic.
func (w *world) retireIfDead(dst int) {
	if exited, _, _ := w.peerState(dst); exited {
		w.drainDead(dst)
	}
}

// delivered queues one received message and retires its in-flight count;
// wasBlocked additionally retires the receiver's blocked count in the same
// critical section, so no evaluation of the deadlock condition can observe
// "still blocked" together with "nothing in flight" for a receiver that
// just got its message.
func (w *world) delivered(rank int, m message, wasBlocked bool) {
	st := w.ranks[rank]
	st.pending[m.src] = append(st.pending[m.src], m)
	w.mu.Lock()
	w.inFlight--
	w.inFlightTo[rank]--
	if wasBlocked {
		w.blocked--
		w.waiting[rank] = waitNone
	}
	w.mu.Unlock()
}

// unblocked retires a blocked count after a message-less wakeup.
func (w *world) unblocked(rank int) {
	w.mu.Lock()
	w.blocked--
	w.waiting[rank] = waitNone
	w.mu.Unlock()
}

// drainInbox moves every already-delivered message into the per-source
// pending queues without blocking.
func (w *world) drainInbox(rank int) {
	st := w.ranks[rank]
	for {
		select {
		case m := <-st.inbox:
			w.delivered(rank, m, false)
		default:
			return
		}
	}
}

// awaitInbox blocks until a new message lands in the inbox (queued to
// pending) or the world's membership changes (exitCh: a rank exited or a
// global deadlock was declared), after which the caller re-evaluates its
// wait. Deliberately deaf to world failure: a rank blocked on a message a
// live peer will still send must receive it on every replay — killing it
// early would make crashed-world traces depend on abort timing. Ranks only
// fail on their own unsatisfiable dependencies, so faulty worlds stay
// deterministic rank by rank.
func (w *world) awaitInbox(rank int, exitCh chan struct{}) {
	st := w.ranks[rank]
	select {
	case m := <-st.inbox:
		w.delivered(rank, m, false)
		return
	default:
	}
	w.mu.Lock()
	w.blocked++
	w.waiting[rank] = waitInbox
	w.maybeDeadlockLocked()
	w.mu.Unlock()
	select {
	case m := <-st.inbox:
		w.delivered(rank, m, true)
	case <-exitCh:
		w.unblocked(rank)
	}
}

// recvFrom blocks until a message from src arrives at rank. It fails
// deterministically when src can never deliver: src is not a rank, or src
// already exited with nothing queued.
func (w *world) recvFrom(rank, src int) ([]ir.Word, error) {
	if src < 0 || src >= w.size {
		return nil, fmt.Errorf("mpi: recv from invalid rank %d", src)
	}
	st := w.ranks[rank]
	for {
		// Snapshot the exit state BEFORE draining: if src had already
		// exited, everything it ever sent is drainable afterwards, so an
		// empty queue then proves nothing more will come.
		exited, dead, exitCh := w.peerState(src)
		w.drainInbox(rank)
		if q := st.pending[src]; len(q) > 0 {
			st.pending[src] = q[1:]
			return q[0].data, nil
		}
		if exited {
			return nil, fmt.Errorf("mpi: recv from rank %d, which exited without sending", src)
		}
		if dead {
			return nil, errAborted
		}
		w.awaitInbox(rank, exitCh)
	}
}

// recvAny receives the next message from any source; in replay mode it
// follows the recorded source order. With every peer exited and nothing
// queued it fails deterministically.
func (w *world) recvAny(rank int) (int, []ir.Word, error) {
	st := w.ranks[rank]
	if w.replay != nil && rank < len(w.replay.AnySources) {
		log := w.replay.AnySources[rank]
		if st.anyNext < len(log) {
			src := int(log[st.anyNext])
			st.anyNext++
			data, err := w.recvFrom(rank, src)
			if err == nil {
				st.anyLog = append(st.anyLog, int32(src))
			}
			return src, data, err
		}
	}
	for {
		allExited, dead, exitCh := w.othersExited(rank)
		w.drainInbox(rank)
		// Natural order: queued messages in ascending source order. Inbox
		// arrival order is the one source of nondeterminism left in a
		// world — it is exactly what the Recording pins down.
		for src := 0; src < w.size; src++ {
			if q := st.pending[src]; len(q) > 0 {
				st.pending[src] = q[1:]
				st.anyLog = append(st.anyLog, int32(src))
				return src, q[0].data, nil
			}
		}
		if allExited {
			return 0, nil, fmt.Errorf("mpi: wildcard recv with every peer exited")
		}
		if dead {
			return 0, nil, errAborted
		}
		w.awaitInbox(rank, exitCh)
	}
}

// allreduceSum performs an elementwise float64 sum across all ranks. Every
// rank must call it with the same count. The reduction is evaluated in rank
// index order whatever the arrival order, so results are deterministic.
func (w *world) allreduceSum(rank int, local []float64) ([]float64, error) {
	// Queue any already-delivered messages (they are for later receives)
	// before possibly waiting: a rank blocked in a collective must not hold
	// in-flight counts that would mask the deadlock detector.
	w.drainInbox(rank)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.parts[rank] != nil {
		return nil, fmt.Errorf("mpi: rank %d re-entered allreduce round", rank)
	}
	arrived := 0
	for _, p := range w.parts {
		if p != nil {
			arrived++
		}
	}
	if arrived == 0 {
		w.bufN = len(local)
	} else if len(local) != w.bufN {
		return nil, fmt.Errorf("mpi: allreduce count mismatch: %d vs %d", len(local), w.bufN)
	}
	// The copy is always non-nil (even zero-length, for barriers): non-nil
	// is what marks the rank as having contributed to this round.
	cp := make([]float64, len(local))
	copy(cp, local)
	w.parts[rank] = cp
	if arrived+1 == w.size {
		// Round complete: reduce in rank order and wake the waiters. Every
		// co-contributor is in cond.Wait right now (contributing and
		// waiting happen in one critical section), so their blocked counts
		// are retired here, at satisfaction time — a satisfied-but-not-yet-
		// scheduled waiter must not look "blocked" to the deadlock check.
		// (All size ranks contributed, so nobody is blocked anywhere else:
		// clearing every waiting entry is exact.)
		sum := make([]float64, w.bufN)
		for _, p := range w.parts {
			for i, v := range p {
				sum[i] += v
			}
		}
		for i := range w.parts {
			w.parts[i] = nil
		}
		w.result = sum
		w.gen++
		w.blocked -= w.size - 1
		for i := range w.waiting {
			w.waiting[i] = waitNone
		}
		w.cond.Broadcast()
		return w.result, nil
	}
	gen := w.gen
	for {
		if w.roundDead() || w.deadlocked {
			return nil, errAborted
		}
		w.blocked++
		w.waiting[rank] = waitCollective
		if w.maybeDeadlockLocked() {
			w.blocked--
			w.waiting[rank] = waitNone
			return nil, errAborted
		}
		w.cond.Wait()
		if w.gen != gen {
			// Satisfied: the completer already retired our blocked count.
			return w.result, nil
		}
		w.blocked-- // woken without a result (exit/abort): re-evaluate
		w.waiting[rank] = waitNone
	}
}

// roundDead reports whether the current allreduce round can never complete:
// some rank has neither contributed nor any chance of contributing (its
// goroutine already ended — crashed, hung, or returned without joining the
// collective). Completion and death are both deterministic facts of the
// program, so waiters abort identically on every replay. Callers must hold
// mu.
func (w *world) roundDead() bool {
	for r, p := range w.parts {
		if p == nil && w.exited[r] {
			return true
		}
	}
	return false
}

// barrier synchronizes all ranks (an allreduce of nothing).
func (w *world) barrier(rank int) error {
	_, err := w.allreduceSum(rank, nil)
	return err
}

// Run executes the program SPMD across cfg.Ranks ranks and returns the
// per-rank traces and the wildcard-receive recording.
func Run(p *ir.Program, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !p.Sealed() {
		return nil, fmt.Errorf("mpi: program not sealed")
	}
	w := newWorld(cfg.Ranks, cfg.Replay)
	return w.runRanks(cfg.Ranks, func(rank int) (*trace.Trace, bool, error) {
		return w.runRank(p, cfg, rank)
	})
}

// runRanks launches one goroutine per rank, each executing runOne to its own
// deterministic conclusion (rankExit publishes the end either way), and
// assembles the world Result — the spine shared by fresh runs (Run) and
// world-snapshot resumes (RestoreWorld).
func (w *world) runRanks(n int, runOne func(rank int) (*trace.Trace, bool, error)) (*Result, error) {
	results := make([]RankResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, applied, err := runOne(rank)
			results[rank] = RankResult{Rank: rank, Trace: tr, FaultApplied: applied}
			errs[rank] = err
			w.rankExit(rank)
		}(rank)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	rec := &Recording{AnySources: make([][]int32, n)}
	cuts := make([][]uint64, n)
	for rank := 0; rank < n; rank++ {
		rec.AnySources[rank] = w.ranks[rank].anyLog
		cuts[rank] = w.ranks[rank].cutLog
	}
	return &Result{Ranks: results, Recording: rec, Cuts: cuts}, nil
}

// newRankMachine builds and fully binds one rank's machine under cfg —
// standard hosts, this world's MPI hosts, and the app's ExtraBind — without
// seeding the RNG or installing the fault. Fresh runs (runRank) seed and
// inject on top; world-snapshot restores instead load a snapshot, which
// overwrites the RNG, and install the fault afterwards.
func (w *world) newRankMachine(p *ir.Program, cfg Config, rank int) (*interp.Machine, error) {
	m, err := interp.NewMachine(p)
	if err != nil {
		return nil, err
	}
	m.Mode = cfg.Mode
	if cfg.StepLimit != 0 {
		m.StepLimit = cfg.StepLimit
	}
	m.TraceHint = cfg.TraceHint
	if err := m.BindStandardHosts(); err != nil {
		return nil, err
	}
	if err := w.bindMPIHosts(m, rank); err != nil {
		return nil, err
	}
	if cfg.ExtraBind != nil {
		if err := cfg.ExtraBind(m, rank); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (w *world) runRank(p *ir.Program, cfg Config, rank int) (*trace.Trace, bool, error) {
	m, err := w.newRankMachine(p, cfg, rank)
	if err != nil {
		return nil, false, err
	}
	m.SeedRNG(cfg.Seed + uint64(rank) + 1)
	if cfg.Fault != nil && rank == cfg.FaultRank {
		f := *cfg.Fault
		m.Fault = &f
	}
	tr, err := m.Run()
	return tr, m.FaultApplied, err
}

func (w *world) bindMPIHosts(m *interp.Machine, rank int) error {
	bind := func(name string, fn interp.HostFn) error {
		if _, ok := m.Prog.HostIndex(name); !ok {
			return nil // program does not use this primitive
		}
		return m.BindHost(name, fn)
	}
	if err := bind(HostRank, func(_ *interp.Machine, _ []ir.Word) (ir.Word, error) {
		return ir.I64Word(int64(rank)), nil
	}); err != nil {
		return err
	}
	if err := bind(HostSize, func(_ *interp.Machine, _ []ir.Word) (ir.Word, error) {
		return ir.I64Word(int64(w.size)), nil
	}); err != nil {
		return err
	}
	if err := bind(HostSend, func(mm *interp.Machine, args []ir.Word) (ir.Word, error) {
		dst, addr, count := args[0].Int(), args[1].Int(), args[2].Int()
		if addr < 0 || count < 0 || addr+count > int64(mm.MemLen()) {
			return 0, fmt.Errorf("send buffer [%d,%d) out of range", addr, addr+count)
		}
		buf := make([]ir.Word, count)
		mm.ReadMem(buf, addr)
		return 0, w.send(rank, int(dst), buf)
	}); err != nil {
		return err
	}
	if err := bind(HostRecv, func(mm *interp.Machine, args []ir.Word) (ir.Word, error) {
		src, addr, count := args[0].Int(), args[1].Int(), args[2].Int()
		if addr < 0 || count < 0 || addr+count > int64(mm.MemLen()) {
			return 0, fmt.Errorf("recv buffer [%d,%d) out of range", addr, addr+count)
		}
		data, err := w.recvFrom(rank, int(src))
		if err != nil {
			return 0, err
		}
		if int64(len(data)) != count {
			return 0, fmt.Errorf("recv size mismatch: got %d want %d", len(data), count)
		}
		mm.WriteMem(addr, data)
		return 0, nil
	}); err != nil {
		return err
	}
	if err := bind(HostRecvAny, func(mm *interp.Machine, args []ir.Word) (ir.Word, error) {
		addr, count := args[0].Int(), args[1].Int()
		if addr < 0 || count < 0 || addr+count > int64(mm.MemLen()) {
			return 0, fmt.Errorf("recv buffer [%d,%d) out of range", addr, addr+count)
		}
		src, data, err := w.recvAny(rank)
		if err != nil {
			return 0, err
		}
		if int64(len(data)) != count {
			return 0, fmt.Errorf("recv size mismatch: got %d want %d", len(data), count)
		}
		mm.WriteMem(addr, data)
		return ir.I64Word(int64(src)), nil
	}); err != nil {
		return err
	}
	if err := bind(HostBarrier, func(mm *interp.Machine, _ []ir.Word) (ir.Word, error) {
		if err := w.barrier(rank); err != nil {
			return 0, err
		}
		// Steps() inside a host call is the step of the NEXT instruction —
		// exactly the consistent cut point right after this collective
		// (see Result.Cuts).
		w.ranks[rank].cutLog = append(w.ranks[rank].cutLog, mm.Steps())
		return 0, nil
	}); err != nil {
		return err
	}
	return bind(HostAllreduceSum, func(mm *interp.Machine, args []ir.Word) (ir.Word, error) {
		addr, count := args[0].Int(), args[1].Int()
		if addr < 0 || count < 0 || addr+count > int64(mm.MemLen()) {
			return 0, fmt.Errorf("allreduce buffer [%d,%d) out of range", addr, addr+count)
		}
		buf := make([]ir.Word, count)
		mm.ReadMem(buf, addr)
		local := make([]float64, count)
		for i := range local {
			local[i] = buf[i].Float()
		}
		sum, err := w.allreduceSum(rank, local)
		if err != nil {
			return 0, err
		}
		for i, v := range sum {
			buf[i] = ir.F64Word(v)
		}
		mm.WriteMem(addr, buf)
		w.ranks[rank].cutLog = append(w.ranks[rank].cutLog, mm.Steps())
		return 0, nil
	})
}
