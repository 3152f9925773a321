package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"fliptracker/internal/coord"
	"fliptracker/internal/core"
	"fliptracker/internal/inject"
	"fliptracker/internal/journal"
	"fliptracker/internal/mpi"
	"fliptracker/internal/server"
)

// shape is one entry of the service's spec mix. Each shape runs with
// serviceSeeds distinct seeds derived from the run seed, except the CI smoke
// spec, whose seed and size are pinned with its digest.
type shape struct {
	name string
	spec server.Spec
	// ci marks the CI smoke spec: its NDJSON record lines must digest to
	// ciSmokeDigest on every run.
	ci bool
}

// serviceShards keeps shards × parallelism within nproc, so one campaign
// never oversubscribes the box.
func serviceShards(nproc, want int) (shards, par int) {
	shards = max(1, min(want, nproc))
	return shards, max(1, nproc/shards)
}

// fullShapes is the service mix: sharded inject campaigns on the cheap apps
// with and without static pruning, MPI campaigns, and the CI smoke spec.
func fullShapes(nproc int) []shape {
	var out []shape
	sh, par := serviceShards(nproc, 4)
	for _, app := range []string{"mg", "ft", "kmeans"} {
		for _, prune := range []bool{false, true} {
			name := app
			if prune {
				name += "-prune"
			}
			out = append(out, shape{name: name, spec: server.Spec{
				App: app, Engine: "inject", Shards: sh, Parallelism: par, StaticPrune: prune,
			}})
		}
	}
	// is worlds cost several times the other campaigns. Injecting is at two
	// ranks puts a fifth of the campaigns in that slow group, so
	// campaign_ms_p90 falls inside it rather than on its edge, where the
	// seed's draw would swing it.
	msh, mpar := serviceShards(nproc, 2)
	for _, m := range []struct {
		app  string
		rank int
	}{{"is", 1}, {"is", 2}, {"mg", 1}} {
		out = append(out, shape{name: fmt.Sprintf("%s-mpi-r%d", m.app, m.rank), spec: server.Spec{
			App: m.app, Engine: "mpi", Ranks: 3, FaultRank: m.rank, Shards: msh, Parallelism: mpar,
		}})
	}
	return append(out, ciShape(nproc))
}

func tinyShapes(nproc int) []shape {
	sh, par := serviceShards(nproc, 2)
	return []shape{
		{name: "kmeans-prune", spec: server.Spec{App: "kmeans", Engine: "inject", Shards: sh, Parallelism: par, StaticPrune: true}},
		{name: "is-mpi", spec: server.Spec{App: "is", Engine: "mpi", Ranks: 3, FaultRank: 1, Shards: sh, Parallelism: par}},
		ciShape(nproc),
	}
}

// ciShape is the repository CI's service smoke spec. CI runs it at 4
// shards; the stream is shard-invariant, so fewer CPUs take fewer shards.
func ciShape(nproc int) shape {
	sh, _ := serviceShards(nproc, 4)
	return shape{name: "ci-smoke", ci: true, spec: server.Spec{
		App: "kmeans", Engine: "inject", Seed: 20181111, Tests: 24, Shards: sh, Parallelism: 1,
	}}
}

// service is the service-journaled workload: the campaign service in
// process behind httptest with a DataDir, loaded by a closed loop of one
// client that POSTs a spec and follows its NDJSON stream to the done line
// before sending the next. Each campaign's shards already use every CPU;
// a second client would only queue behind them.
type service struct {
	e      *env
	shapes []shape
	specs  []server.Spec // distinct campaigns: shape-major, seed-minor
	keys   []string
	group  []int // each campaign's index in shapes

	srv  *server.Server
	http *httptest.Server
	ids  int

	// POST latencies and record-line bytes of the last measured phase; the
	// replay's HTTP-minus-in-process times.
	postMS    []float64
	lineBytes int
	lines     int
	overhead  []float64
}

func newService(e *env) workload {
	w := &service{e: e, shapes: e.scale.serviceShapes(e.nproc)}
	for si, sh := range w.shapes {
		seeds := e.scale.serviceSeeds
		if sh.ci {
			seeds = 1
		}
		for k := 0; k < seeds; k++ {
			spec := sh.spec
			if !sh.ci {
				spec.Seed = subSeed(e.seed, 1000+si, k)
				spec.Tests = e.scale.serviceTests
				if spec.Engine == "mpi" {
					spec.Tests = e.scale.serviceWorlds
				}
			}
			w.specs = append(w.specs, spec)
			w.keys = append(w.keys, fmt.Sprintf("%s/k%d", sh.name, k))
			w.group = append(w.group, si)
		}
	}
	return w
}

// setup starts a fresh service and pays every cache it builds lazily: one
// single-fault campaign per shape builds the app's analyzer (clean trace),
// the MPI clean world and the static pruner before timing starts.
func (w *service) setup() (time.Duration, error) {
	w.close()
	start := time.Now()
	dir, err := os.MkdirTemp(w.e.tmp, "service-")
	if err != nil {
		return 0, err
	}
	w.srv = server.New(server.Options{DataDir: dir, MaxRunning: w.e.nproc, MaxCampaigns: 1 << 30})
	w.http = httptest.NewServer(w.srv)
	for _, sh := range w.shapes {
		spec := sh.spec
		spec.Tests, spec.Shards = 1, 1
		if _, err := w.campaign(spec, "warm", nil); err != nil {
			return 0, fmt.Errorf("warm %s: %w", sh.name, err)
		}
	}
	return time.Since(start), nil
}

// close stops the HTTP server and drains the service, so no campaign
// goroutine outlives the workload.
func (w *service) close() {
	if w.http == nil {
		return
	}
	w.http.Close()
	w.srv.Drain(context.Background())
	w.http, w.srv = nil, nil
}

// campaignRun is what one client measured for one campaign.
type campaignRun struct {
	post, first, total time.Duration
	lines              []string
	bytes              int
}

// campaign POSTs spec under a fresh id and follows its stream to the done
// line. Any non-2xx response or a terminal state other than done is an
// error.
func (w *service) campaign(spec server.Spec, key string, rec *recorder) (*campaignRun, error) {
	w.ids++
	spec.ID = fmt.Sprintf("c%d", w.ids)
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	client := w.http.Client()
	cs := rec.begin("server.campaign", key, -1)
	defer rec.end(cs)
	t0 := time.Now()
	ps := rec.begin("server.post", key, cs)
	resp, err := client.Post(w.http.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		rec.end(ps)
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rec.end(ps)
	run := &campaignRun{post: time.Since(t0)}
	if resp.StatusCode != http.StatusCreated {
		return nil, fmt.Errorf("POST %s: %s", key, resp.Status)
	}
	ss := rec.begin("server.stream", key, cs)
	defer rec.end(ss)
	resp, err = client.Get(w.http.URL + "/campaigns/" + spec.ID + "/stream")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET stream %s: %s", key, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if len(run.lines) == 0 {
			run.first = time.Since(t0)
		}
		var end struct {
			Done  bool   `json:"done"`
			State string `json:"state"`
			Error string `json:"error"`
		}
		if bytes.Contains(sc.Bytes(), []byte(`"done":true`)) && json.Unmarshal(sc.Bytes(), &end) == nil && end.Done {
			run.total = time.Since(t0)
			if end.State != server.StateDone {
				return nil, fmt.Errorf("campaign %s ended %s: %s", key, end.State, end.Error)
			}
			return run, nil
		}
		run.lines = append(run.lines, line)
		run.bytes += len(line) + 1
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("campaign %s: stream ended without a done line", key)
}

// streamDigestOf digests NDJSON record lines by the engine-neutral rule the
// replay uses.
func streamDigestOf(lines []string) (uint64, error) {
	var d streamDigest
	for _, l := range lines {
		var ol outLine
		if err := json.Unmarshal([]byte(l), &ol); err != nil {
			return 0, fmt.Errorf("bad NDJSON line %q: %w", l, err)
		}
		d.add(ol)
	}
	return d.sum(), nil
}

// measure cycles one client through every distinct campaign until d has
// passed and reports each one's best run.
func (w *service) measure(d time.Duration, rec *recorder) (*phase, error) {
	w.postMS, w.lineBytes, w.lines = nil, 0, 0
	faults := make([]int, len(w.specs))
	for k, spec := range w.specs {
		faults[k] = spec.Tests
	}
	cs := newCases(w.group, faults)
	cs.cycle(d, func(k int) (time.Duration, time.Duration, bool) {
		run := w.client(k, rec)
		if run == nil {
			return 0, 0, false
		}
		return run.total, run.first, true
	})
	return cs.phase(), nil
}

// client runs distinct campaign k once and checks its stream; it returns
// nil if the campaign or a check failed.
func (w *service) client(k int, rec *recorder) *campaignRun {
	key := w.keys[k]
	run, err := w.campaign(w.specs[k], key, rec)
	if !w.e.check.expect(err == nil, "campaign %s: %v", key, err) {
		return nil
	}
	ok := w.e.check.expect(len(run.lines) == w.specs[k].Tests, "campaign %s: %d/%d records", key, len(run.lines), w.specs[k].Tests)
	if w.shapes[w.group[k]].ci {
		dg := ciDigest(run.lines)
		ok = w.e.check.expect(dg == ciSmokeDigest, "CI smoke stream digest %#x, want %#x", dg, uint64(ciSmokeDigest)) && ok
	}
	dg, err := streamDigestOf(run.lines)
	if !w.e.check.expect(err == nil, "campaign %s: %v", key, err) {
		return nil
	}
	w.e.observe(key, dg)
	w.postMS = append(w.postMS, ms(run.post))
	w.lineBytes += run.bytes
	w.lines += len(run.lines)
	if !ok {
		return nil
	}
	return run
}

// replay re-executes every distinct campaign of the mix in process, layer
// by layer: the engine per coord.Plan shard window, the same windows
// through StreamWindow (timed per shard), and the merged records appended
// to a fresh journal. Both digests must equal the HTTP stream's. In the
// traced run it also times each spec over HTTP and through coord in
// process, for server.overhead_ms.
func (w *service) replay(rp *replayer) error {
	defer w.close()
	ctx := context.Background()
	ans := map[string]*core.Analyzer{}
	mas := map[string]*core.MPIAnalyzer{}
	replayed := map[string]bool{}
	w.overhead = nil
	for k, spec := range w.specs {
		key := w.keys[k]
		var recs, merged []journal.Record
		var header journal.Header
		var runner coord.Runner
		var err error
		plan := coord.Plan(spec.Tests, spec.Shards)
		jpath := filepath.Join(w.e.tmp, fmt.Sprintf("replay-%d.journal", k))
		switch spec.Engine {
		case "inject":
			an := ans[spec.App]
			if an == nil {
				if an, err = core.NewAnalyzer(spec.App); err != nil {
					return err
				}
				ans[spec.App] = an
			}
			opts := []inject.Option{inject.WithTests(spec.Tests), inject.WithSeed(spec.Seed), inject.WithParallelism(spec.Parallelism)}
			job := injectJob{id: key, app: an.App, prog: an.Prog}
			if spec.StaticPrune {
				if job.pruner, err = an.StaticPruner(); err != nil {
					return err
				}
				opts = append(opts, inject.WithStaticPrune(job.pruner))
			}
			c, err := an.NewCampaign(core.WholeProgram(), opts...)
			if err != nil {
				return err
			}
			job.faults = c.Faults()
			for _, sh := range plan {
				job.first, job.last = sh.First, sh.Last
				r, err := rp.injectCampaign(job)
				if !w.e.check.expect(err == nil, "replay %s: %v", key, err) {
					break
				}
				recs = append(recs, r...)
			}
			merged, err = shards(rp, key, spec.Tests, spec.Shards, func(first, last int) iter.Seq2[inject.FaultOutcome, error] {
				return c.StreamWindow(ctx, first, last)
			}, injectRecord)
			if err != nil {
				return err
			}
			header = c.JournalHeader()
			if rp.rec != nil {
				h, err := coord.Inject(c)
				if err != nil {
					return err
				}
				if runner, err = coord.New(h, coord.WithShards(spec.Shards), coord.WithJournal(jpath)); err != nil {
					return err
				}
			}
		case "mpi":
			mkey := fmt.Sprintf("%s/%d/%d", spec.App, spec.Ranks, spec.FaultRank)
			ma := mas[mkey]
			if ma == nil {
				if ma, err = core.NewMPIAnalyzer(spec.App, spec.Ranks); err != nil {
					return err
				}
				ma.FaultRank = spec.FaultRank
				mas[mkey] = ma
			}
			c, err := ma.NewCampaign(nil, mpi.WithTests(spec.Tests), mpi.WithSeed(spec.Seed), mpi.WithParallelism(spec.Parallelism))
			if err != nil {
				return err
			}
			job := mpiJob{id: key, ma: ma, c: c}
			for _, sh := range plan {
				job.first, job.last = sh.First, sh.Last
				r, err := rp.mpiCampaign(ctx, job)
				if !w.e.check.expect(err == nil, "replay %s: %v", key, err) {
					break
				}
				recs = append(recs, r...)
			}
			merged, err = shards(rp, key, spec.Tests, spec.Shards, func(first, last int) iter.Seq2[mpi.WorldOutcome, error] {
				return c.StreamWindow(ctx, first, last)
			}, mpiRecord)
			if err != nil {
				return err
			}
			header = c.JournalHeader()
			if rp.rec != nil {
				h, err := coord.MPI(c)
				if err != nil {
					return err
				}
				if runner, err = coord.New(h, coord.WithShards(spec.Shards), coord.WithJournal(jpath)); err != nil {
					return err
				}
			}
		}
		mpiEngine := spec.Engine == "mpi"
		dg := digestRecords(recs, mpiEngine)
		w.e.expect(key, dg)
		w.e.check.expect(digestRecords(merged, mpiEngine) == dg, "campaign %s: StreamWindow shards disagree with the layer-by-layer replay", key)
		replayed[key] = true
		if err := rp.journalRecords(key, jpath, header, merged); err != nil {
			return err
		}
		if runner != nil {
			if err := w.overheadOf(key, spec, jpath, runner, dg, mpiEngine); err != nil {
				return err
			}
		}
	}
	for _, key := range w.e.unchecked(replayed) {
		w.e.check.fail("campaign %s ran but was never replayed", key)
	}
	return nil
}

// overheadOf times one campaign over HTTP with the service otherwise idle,
// then the same spec through the coordinator in process, journaled like the
// service; the difference is the server's overhead.
func (w *service) overheadOf(key string, spec server.Spec, jpath string, runner coord.Runner, want uint64, mpiEngine bool) error {
	defer os.Remove(jpath)
	run, err := w.campaign(spec, key, nil)
	if !w.e.check.expect(err == nil, "campaign %s: %v", key, err) {
		return nil
	}
	start := time.Now()
	var recs []journal.Record
	for r, err := range runner.Records(context.Background()) {
		if err != nil {
			return err
		}
		recs = append(recs, r)
	}
	took := time.Since(start)
	w.e.check.expect(digestRecords(recs, mpiEngine) == want, "campaign %s: in-process coordinator stream differs from the replay", key)
	dg, err := streamDigestOf(run.lines)
	w.e.check.expect(err == nil && dg == want, "campaign %s: idle-service stream differs from the replay (%v)", key, err)
	w.overhead = append(w.overhead, ms(run.total-took))
	return nil
}

func (w *service) input() string {
	faults := 0
	for _, sp := range w.specs {
		faults += sp.Tests
	}
	return fmt.Sprintf("%d distinct campaigns (%d shapes, %d seeds each, CI smoke once) = %d distinct faults, one closed-loop client",
		len(w.specs), len(w.shapes), w.e.scale.serviceSeeds, faults)
}

func (w *service) extra() map[string]float64 {
	return map[string]float64{
		"server.post_ms":        mean(w.postMS),
		"server.bytes_per_line": ratio(float64(w.lineBytes), float64(w.lines)),
		"server.overhead_ms":    mean(w.overhead),
	}
}
