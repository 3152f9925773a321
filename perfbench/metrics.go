package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"
)

// metricDef names one metric. Every metric prints as a "metric" line; the
// ones marked result also go into the JSON result object. A time that only
// some workloads measure (the layer is bypassed elsewhere) reads 0 on the
// others, so it is printed but kept out of the result object, whose times
// must be measured on every workload.
type metricDef struct {
	name, unit string
	result     bool
}

// endToEndMetrics are what a user of the system sees; an untraced run
// reports every one of them on every workload. error_rate is 0 on a correct
// run; the result object carries it as failed over attempted.
var endToEndMetrics = []metricDef{
	{"faults_per_s", "1/s", true},
	{"campaign_ms_p50", "ms", true},
	{"campaign_ms_p90", "ms", true},
	{"first_outcome_ms_p50", "ms", true},
	{"setup_s", "s", true},
	{"peak_rss_mb", "MB", true},
	{"error_rate", "ratio", false},
}

// layerMetrics come from the traced run: spans around each layer call and
// the replay's exact work counters. A layer the workload bypasses reads 0.
var layerMetrics = []metricDef{
	{"interp.steps", "count", true},
	{"interp.forward_steps", "count", true},
	{"interp.checkpoints", "count", true},
	{"interp.hang_runs", "count", true},
	{"interp.hang_step_share", "ratio", true},
	{"interp.run_ms", "ms", true},
	{"interp.msteps_per_s", "Msteps/s", true},
	{"interp.snapshot_us", "us", true},
	{"interp.restore_us", "us", true},
	{"apps.new_machine_us", "us", true},
	{"apps.verify_us", "us", true},
	{"inject.plan_ms", "ms", true},
	{"inject.replayed_steps", "count", true},
	{"campaign.reorder_wait_ms", "ms", false},
	{"trace.records", "count", true},
	{"trace.prime_us", "us", false},
	{"core.analyze_ms", "ms", false},
	{"acl.analyze_ms", "ms", false},
	{"dddg.compare_ms", "ms", false},
	{"patterns.detect_ms", "ms", false},
	{"core.regions_touched", "count", true},
	{"irstatic.pruned", "count", true},
	{"irstatic.pruned_share", "ratio", true},
	{"journal.append_us", "us", false},
	{"journal.records", "count", true},
	{"coord.shard_ms_max", "ms", false},
	{"coord.shard_ms_mean", "ms", false},
	{"mpi.worlds", "count", true},
	{"mpi.world_ms", "ms", false},
	{"mpi.snapshot_world_ms", "ms", false},
	{"mpi.restore_world_ms", "ms", false},
	{"server.post_ms", "ms", false},
	{"server.bytes_per_line", "bytes", true},
	{"server.overhead_ms", "ms", false},
	{"bench.trace_overhead_faults_per_s", "1/s", true},
}

// report is one run's result.
type report struct {
	values   map[string]float64
	counters counters
	spans    *recorder
	samples  int
	repeats  float64
	hangs    int
}

func (r *report) endToEnd(ph *phase, setups []float64, rss float64) {
	r.samples = len(ph.campaignMS)
	r.repeats = ph.repeats
	r.hangs = ph.hangs
	r.values["faults_per_s"] = ph.faultsPerS
	r.values["campaign_ms_p50"] = quantile(ph.campaignMS, 0.5)
	r.values["campaign_ms_p90"] = quantile(ph.campaignMS, 0.9)
	r.values["first_outcome_ms_p50"] = median(ph.firstMS)
	r.values["setup_s"] = median(setups)
	r.values["peak_rss_mb"] = rss
}

func (r *report) layerMetrics(rp *replayer, rec *recorder, extra map[string]float64) {
	rec.finish()
	st := rec.stats()
	c := rp.ctr
	v := r.values
	v["interp.steps"] = float64(c.Steps)
	v["interp.forward_steps"] = float64(c.ForwardSteps)
	v["interp.checkpoints"] = float64(c.Checkpoints)
	v["interp.hang_runs"] = float64(c.HangRuns)
	v["interp.hang_step_share"] = ratio(float64(c.HangSteps), float64(c.Steps))
	v["interp.run_ms"] = meanMS(st, "interp.resume", "interp.run")
	var execTime time.Duration
	for _, n := range []string{"interp.run_until", "interp.resume", "interp.run"} {
		if s := st[n]; s != nil {
			execTime += s.Total
		}
	}
	v["interp.msteps_per_s"] = ratio(float64(c.Steps)/1e6, execTime.Seconds())
	v["interp.snapshot_us"] = 1000 * meanMS(st, "interp.snapshot")
	v["interp.restore_us"] = 1000 * meanMS(st, "interp.restore")
	v["apps.new_machine_us"] = 1000 * meanMS(st, "apps.new_machine")
	v["apps.verify_us"] = 1000 * meanMS(st, "apps.verify")
	v["inject.plan_ms"] = meanMS(st, "inject.plan")
	v["inject.replayed_steps"] = float64(c.ReplayedSteps)
	v["campaign.reorder_wait_ms"] = meanMS(st, "campaign.reorder_wait")
	v["trace.records"] = float64(c.TraceRecords)
	v["trace.prime_us"] = 1000 * meanMS(st, "trace.prime")
	v["core.analyze_ms"] = meanMS(st, "core.analyze")
	v["acl.analyze_ms"] = meanMS(st, "acl.analyze")
	v["dddg.compare_ms"] = meanMS(st, "dddg.compare")
	v["patterns.detect_ms"] = meanMS(st, "patterns.detect")
	v["core.regions_touched"] = float64(c.RegionsTouched)
	v["irstatic.pruned"] = float64(c.Pruned)
	v["irstatic.pruned_share"] = ratio(float64(c.Pruned), float64(c.Prunable))
	v["journal.append_us"] = 1000 * meanMS(st, "journal.append")
	v["journal.records"] = float64(c.JournalRecords)
	var slowest, all []float64
	for _, shards := range rp.shardMS {
		slowest = append(slowest, quantile(shards, 1))
		all = append(all, shards...)
	}
	v["coord.shard_ms_max"] = mean(slowest)
	v["coord.shard_ms_mean"] = mean(all)
	v["mpi.worlds"] = float64(c.Worlds)
	v["mpi.world_ms"] = meanMS(st, "mpi.restore_world", "mpi.run_world")
	v["mpi.snapshot_world_ms"] = meanMS(st, "mpi.snapshot_world")
	v["mpi.restore_world_ms"] = meanMS(st, "mpi.restore_world")
	for _, m := range []string{"server.post_ms", "server.bytes_per_line", "server.overhead_ms"} {
		v[m] = extra[m]
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable result and then, as the last line, the
// JSON result object.
func (r *report) print(e *env) {
	defs := endToEndMetrics
	if e.traced {
		defs = layerMetrics
		r.spans.printTable(e.log)
	} else {
		fmt.Fprintf(e.log, "campaign latency samples: %d distinct campaigns, best of a median %.0f runs each; %d step-limit hang campaigns left out of faults_per_s\n", r.samples, r.repeats, r.hangs)
	}
	fmt.Fprintf(e.log, "counters: %s\n", mustJSON(r.counters))
	c := &e.check
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range c.failures {
		fmt.Fprintf(e.log, "FAILED: %s\n", f)
	}
	fmt.Fprintf(e.log, "operations: %d failed of %d attempted\n", c.failed, c.attempted)
	r.values["error_rate"] = ratio(float64(c.failed), float64(c.attempted))
	metrics := map[string]metricJSON{}
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		if d.result {
			metrics[d.name] = metricJSON{v, d.unit}
		}
		fmt.Fprintf(e.log, "metric %-36s %16.6f %s\n", d.name, v, d.unit)
	}
	out, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{c.failed == 0, max(c.attempted, 1), c.failed, metrics})
	fmt.Fprintln(e.log, string(out))
}
