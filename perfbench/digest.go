package main

import (
	"fmt"
	"hash/fnv"
	"strings"

	"fliptracker/internal/inject"
	"fliptracker/internal/journal"
	"fliptracker/internal/mpi"
)

// outLine is one delivered outcome in engine-neutral form: the fields the
// service's NDJSON records carry, so an in-process stream, a layer-by-layer
// replay and an HTTP stream of the same campaign digest identically.
type outLine struct {
	Index uint64 `json:"index"`
	Fault struct {
		Step uint64 `json:"step"`
		Bit  uint8  `json:"bit"`
		Kind string `json:"kind"`
		Addr int64  `json:"addr"`
	} `json:"fault"`
	Outcome   string `json:"outcome"`
	PropClass string `json:"prop_class"`
	PropRanks []int  `json:"prop_ranks"`
}

func lineOf(r journal.Record, mpiEngine bool) outLine {
	var l outLine
	l.Index = r.Index
	l.Fault.Step = r.Fault.Step
	l.Fault.Bit = r.Fault.Bit
	l.Fault.Kind = r.Fault.Kind.String()
	l.Fault.Addr = r.Fault.Addr
	l.Outcome = inject.Outcome(r.Outcome).String()
	if mpiEngine {
		l.PropClass = mpi.PropagationClass(r.PropClass).String()
		l.PropRanks = r.PropRanks
	}
	return l
}

func injectRecord(fo inject.FaultOutcome) journal.Record {
	return journal.Record{Index: uint64(fo.Index), Outcome: uint8(fo.Outcome), Fault: fo.Fault}
}

func mpiRecord(wo mpi.WorldOutcome) journal.Record {
	return journal.Record{
		Index: uint64(wo.Index), Outcome: uint8(wo.Outcome), Fault: wo.Fault,
		PropClass: uint8(wo.Propagation.Class), PropRanks: wo.Propagation.Ranks,
	}
}

// streamDigest is the FNV-64a digest of an outcome stream in index order.
type streamDigest struct{ lines []outLine }

func (d *streamDigest) add(l outLine) { d.lines = append(d.lines, l) }

func (d *streamDigest) sum() uint64 {
	h := fnv.New64a()
	for _, l := range d.lines {
		fmt.Fprintf(h, "%d|%d|%d|%s|%d|%s|%s|%v\n", l.Index, l.Fault.Step, l.Fault.Bit, l.Fault.Kind,
			l.Fault.Addr, l.Outcome, l.PropClass, l.PropRanks)
	}
	return h.Sum64()
}

func digestRecords(recs []journal.Record, mpiEngine bool) uint64 {
	var d streamDigest
	for _, r := range recs {
		d.add(lineOf(r, mpiEngine))
	}
	return d.sum()
}

// ciDigest is the rule the repository's CI applies to the service's NDJSON
// stream: FNV-64a over the record lines (the final done line excluded)
// joined by newlines.
func ciDigest(lines []string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(strings.Join(lines, "\n")))
	return h.Sum64()
}

// ciSmokeDigest pins the CI smoke spec's stream (kmeans, seed 20181111,
// 24 tests): it is the same whatever the shard count or parallelism.
const ciSmokeDigest = 0x8bf2e5a558a6606a
