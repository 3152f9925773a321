// Command perfbench is the campaign benchmark: it drives FlipTracker's
// fault-injection campaigns through the public functions of the internal
// packages (and the campaign service through net/http/httptest), times the
// calls into each layer from the outside, and checks every outcome stream
// against a layer-by-layer replay of the same faults.
//
//	perfbench --workload whole-plain --seed 7 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload twice (untraced, then with callback spans), replays its faults
// layer by layer under spans, and prints the per-layer metrics. Either way
// the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Any failed campaign, non-2xx response or digest mismatch is counted in
// "failed" and makes the command exit with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark invocation and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: whole-plain, region-analyzed or service-journaled")
	seed := fs.Int64("seed", 1, "seed every generated campaign and fault derives from")
	seconds := fs.Float64("seconds", 15, "measured campaign time per run")
	traceFlag := fs.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	scaleName := fs.String("scale", "full", "input size: full, or tiny for smoke tests")
	out := fs.String("out", filepath.Join(".bench_build", "runs"), "directory for span files and scratch journals")
	forceMismatch := fs.Bool("force-mismatch", false, "corrupt one replay digest (exercises the failure path)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have whole-plain, region-analyzed, service-journaled)\n", *workload)
		return 2
	}
	sc, ok := scales[*scaleName]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown scale %q\n", *scaleName)
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer removeAndCommit(tmp, *out)

	e := &env{
		workload:      *workload,
		seed:          *seed,
		seconds:       time.Duration(*seconds * float64(time.Second)),
		traced:        *traceFlag == 1,
		scale:         sc,
		nproc:         runtime.NumCPU(),
		log:           stdout,
		tmp:           tmp,
		forceMismatch: *forceMismatch,
	}
	box := describeBox()
	fmt.Fprintf(stdout, "box: %s\n", mustJSON(box))
	fmt.Fprintf(stdout, "workload %s seed %d seconds %.1f trace %d scale %s\n",
		e.workload, e.seed, e.seconds.Seconds(), *traceFlag, *scaleName)

	wl := w(e)
	fmt.Fprintf(stdout, "input: %s\n", wl.input())
	rep, err := execute(e, wl)
	if err != nil {
		// An error before any result exists is an infrastructure failure
		// (a workload that cannot build or start): report it without a
		// result line.
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if e.traced {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", e.workload, e.seed))
		if err := rep.spans.write(path, box); err != nil {
			e.check.fail("write spans: %v", err)
		} else {
			fmt.Fprintf(stdout, "spans: %d written to %s\n", len(rep.spans.spans), path)
		}
	}
	checkRepeat(e, filepath.Join(*out, fmt.Sprintf("counters-%s-%s-seed%d-%s.json", e.workload, *scaleName, e.seed, box.Tree)), rep.counters)
	rep.print(e)
	if e.check.failed > 0 {
		return 1
	}
	return 0
}

// execute runs one workload in the mode e selects and collects its report.
func execute(e *env, w workload) (*report, error) {
	rep := &report{values: map[string]float64{}}
	if e.traced {
		if _, err := w.setup(); err != nil {
			return nil, err
		}
		half := e.seconds / 2
		plain, err := w.measure(half, nil)
		if err != nil {
			return nil, err
		}
		rec := newRecorder()
		traced, err := w.measure(half, rec)
		if err != nil {
			return nil, err
		}
		rp := &replayer{rec: rec}
		if err := w.replay(rp); err != nil {
			return nil, err
		}
		rep.spans = rec
		rep.layerMetrics(rp, rec, w.extra())
		rep.values["bench.trace_overhead_faults_per_s"] = traced.faultsPerS - plain.faultsPerS
		fmt.Fprintf(e.log, "faults_per_s untraced %.1f traced %.1f\n", plain.faultsPerS, traced.faultsPerS)
		rep.counters = rp.ctr
		return rep, nil
	}
	var setups []float64
	for i := 0; i < e.scale.setupReps; i++ {
		// Collect the previous repetition's state first, so the peak RSS
		// is one set-up's, not the sum of the repetitions'.
		runtime.GC()
		s, err := w.setup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.Seconds())
	}
	ph, err := w.measure(e.seconds, nil)
	if err != nil {
		return nil, err
	}
	// The replay's own memory is the benchmark's, not the workload's.
	rss := peakRSSMB()
	rp := &replayer{}
	if err := w.replay(rp); err != nil {
		return nil, err
	}
	rep.counters = rp.ctr
	rep.endToEnd(ph, setups, rss)
	return rep, nil
}

// removeAndCommit deletes the run's scratch tree (the service leaves
// thousands of journal files) and fsyncs its parent, committing the
// deletion now. On a filesystem mounted with online discard the freed
// blocks are trimmed at that commit; left to a later one, the trim lands in
// the next run and slows its fsyncs.
func removeAndCommit(dir, parent string) {
	os.RemoveAll(dir)
	if d, err := os.Open(parent); err == nil {
		d.Sync()
		d.Close()
	}
}

// exactCounts are the replay's work counters that depend only on the code
// and the seed, in traced and untraced runs alike.
type exactCounts struct {
	Steps          uint64 `json:"interp.steps"`
	ForwardSteps   uint64 `json:"interp.forward_steps"`
	Checkpoints    uint64 `json:"interp.checkpoints"`
	TraceRecords   uint64 `json:"trace.records"`
	JournalRecords uint64 `json:"journal.records"`
	Worlds         uint64 `json:"mpi.worlds"`
	Pruned         uint64 `json:"irstatic.pruned"`
}

// checkRepeat compares this run's exact counts with those an earlier run of
// the same workload, seed, size and source tree left at path, and records
// them there on the first run. Any difference is a determinism failure.
func checkRepeat(e *env, path string, c counters) {
	got := exactCounts{c.Steps, c.ForwardSteps, c.Checkpoints, c.TraceRecords, c.JournalRecords, c.Worlds, c.Pruned}
	if b, err := os.ReadFile(path); err == nil {
		var prev exactCounts
		if err := json.Unmarshal(b, &prev); err != nil {
			e.check.fail("read %s: %v", path, err)
			return
		}
		e.check.expect(prev == got, "determinism: exact counts %s differ from an earlier run's %s", mustJSON(got), mustJSON(prev))
		return
	}
	if err := os.WriteFile(path, []byte(mustJSON(got)), 0o644); err != nil {
		e.check.fail("write %s: %v", path, err)
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%q", err.Error())
	}
	return string(b)
}
