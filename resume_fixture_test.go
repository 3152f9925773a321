package fliptracker_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fliptracker"
	"fliptracker/internal/journal"
)

var updateJournalFixtures = flag.Bool("update-journal-fixtures", false,
	"regenerate the checked-in partial campaign journals under testdata/")

// The checked-in partial journals pin resume compatibility across releases:
// each holds the header and first fixtureRecords outcomes of a campaign
// killed mid-run. A journal written by an older build must keep resuming, so
// the header fingerprint (population type and parameters, world shape,
// stopping rule) must never move and the record encoding must stay readable.
const (
	fixtureRecords    = 10
	injectFixture     = "testdata/resume_inject.journal"
	mpiFixture        = "testdata/resume_mpi.journal"
	fixtureSeed       = 20181111
	injectFixtureTest = 24
	mpiFixtureTests   = 16
)

// copyFixture copies a checked-in journal into a temp dir, since resuming
// appends to the file.
func copyFixture(t *testing.T, src string) string {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-journal-fixtures)", err)
	}
	dst := filepath.Join(t.TempDir(), filepath.Base(src))
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// writeFixture streams a journaled campaign into path and stops it after
// fixtureRecords committed outcomes.
func writeFixture[O any](t *testing.T, path string, stream func(path string) func(func(O, error) bool)) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	os.Remove(path)
	n := 0
	for _, err := range stream(path) {
		if err != nil {
			t.Fatal(err)
		}
		if n++; n == fixtureRecords {
			break
		}
	}
}

// checkFixtureHeader opens the resumed journal under the campaign's own
// header: journal.Open refuses (naming the field) unless every header field,
// the fingerprint included, equals the one stored in the file.
func checkFixtureHeader(t *testing.T, path string, h journal.Header) {
	t.Helper()
	j, recs, err := journal.Open(path, h)
	if err != nil {
		t.Fatalf("JournalHeader() disagrees with the stored header: %v", err)
	}
	j.Close()
	if len(recs) < fixtureRecords {
		t.Fatalf("fixture holds %d records, want >= %d", len(recs), fixtureRecords)
	}
}

// TestResumeFixtureInject resumes the checked-in kmeans whole-program journal
// and requires the resumed stream to be FNV-identical to an uninterrupted
// run.
func TestResumeFixtureInject(t *testing.T) {
	an, err := fliptracker.NewAnalyzer("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	campaign := func(extra ...fliptracker.CampaignOption) *fliptracker.Campaign {
		c, err := an.NewCampaign(fliptracker.WholeProgram(), append([]fliptracker.CampaignOption{
			fliptracker.WithTests(injectFixtureTest), fliptracker.WithSeed(fixtureSeed),
		}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if *updateJournalFixtures {
		writeFixture(t, injectFixture, func(path string) func(func(fliptracker.FaultOutcome, error) bool) {
			return campaign(fliptracker.WithJournal(path)).Stream(ctx)
		})
	}
	digest := func(c *fliptracker.Campaign) uint64 {
		var lines []string
		for fo, err := range c.Stream(ctx) {
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, digestFO(fo))
		}
		if len(lines) != injectFixtureTest {
			t.Fatalf("stream yielded %d outcomes, want %d", len(lines), injectFixtureTest)
		}
		return fnv64(strings.Join(lines, "\n"))
	}
	want := digest(campaign())
	path := copyFixture(t, injectFixture)
	resumed := campaign(fliptracker.WithJournal(path))
	checkFixtureHeader(t, path, resumed.JournalHeader())
	if got := digest(resumed); got != want {
		t.Fatalf("resumed fixture stream digest %#x, uninterrupted run %#x", got, want)
	}
}

// TestResumeFixtureMPI is the same check for the checked-in world journal
// (is, 3 ranks, faults into rank 1): world outcomes and cross-rank
// propagation must resume FNV-identically.
func TestResumeFixtureMPI(t *testing.T) {
	ma, err := fliptracker.NewMPIAnalyzer("is", 3)
	if err != nil {
		t.Fatal(err)
	}
	ma.FaultRank = 1
	ctx := context.Background()
	campaign := func(extra ...fliptracker.MPIOption) *fliptracker.MPICampaign {
		c, err := ma.NewCampaign(nil, append([]fliptracker.MPIOption{
			fliptracker.MPIWithTests(mpiFixtureTests), fliptracker.MPIWithSeed(fixtureSeed),
		}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if *updateJournalFixtures {
		writeFixture(t, mpiFixture, func(path string) func(func(fliptracker.WorldOutcome, error) bool) {
			return campaign(fliptracker.MPIWithJournal(path)).Stream(ctx)
		})
	}
	digest := func(c *fliptracker.MPICampaign) uint64 {
		var lines []string
		for wo, err := range c.Stream(ctx) {
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("#%d %s -> %s %s", wo.Index, wo.Fault.String(), wo.Outcome, wo.Propagation))
		}
		if len(lines) != mpiFixtureTests {
			t.Fatalf("stream yielded %d worlds, want %d", len(lines), mpiFixtureTests)
		}
		return fnv64(strings.Join(lines, "\n"))
	}
	want := digest(campaign())
	path := copyFixture(t, mpiFixture)
	resumed := campaign(fliptracker.MPIWithJournal(path))
	checkFixtureHeader(t, path, resumed.JournalHeader())
	if got := digest(resumed); got != want {
		t.Fatalf("resumed fixture stream digest %#x, uninterrupted run %#x", got, want)
	}
}
