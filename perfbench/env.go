package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// env is one benchmark invocation's shared state: its arguments, the
// correctness checker, and the outcome digests the timed campaigns produced.
type env struct {
	workload      string
	seed          int64
	seconds       time.Duration
	traced        bool
	scale         scale
	nproc         int
	log           io.Writer
	tmp           string
	forceMismatch bool

	check checker

	mu     sync.Mutex
	seen   map[string]uint64
	order  []string
	forced bool
}

// workload is one benchmark workload. setup builds everything timing must
// not include and reports its wall time; measure runs campaigns for d (with
// callback spans when rec is non-nil); replay re-executes every distinct
// campaign layer by layer and checks its digest against the timed runs'.
type workload interface {
	setup() (time.Duration, error)
	measure(d time.Duration, rec *recorder) (*phase, error)
	replay(rp *replayer) error
	// extra returns per-layer values only the workload itself can measure
	// (the service's HTTP costs); nil elsewhere.
	extra() map[string]float64
	// input states the input size faults_per_s is measured at.
	input() string
}

var workloads = map[string]func(*env) workload{
	"whole-plain":       newWholePlain,
	"region-analyzed":   newRegionAnalyzed,
	"service-journaled": newService,
}

// scale sizes every workload. full is the benchmark; tiny keeps the smoke
// test fast while still reaching every layer and metric.
type scale struct {
	setupReps int

	wholeApps  []string
	wholeTests int
	wholeSets  int

	regionApps  []string
	regionTests int
	regionSets  int

	serviceTests  int
	serviceWorlds int
	serviceSeeds  int
	serviceShapes func(nproc int) []shape
}

var scales = map[string]scale{
	"full": {
		setupReps:    7,
		wholeApps:    []string{"cg", "mg", "lu", "bt", "is", "dc", "sp", "ft", "kmeans", "lulesh"},
		wholeTests:   60,
		wholeSets:    10,
		regionApps:   []string{"cg", "mg", "kmeans", "is", "lulesh"},
		regionTests:  2,
		regionSets:   60,
		serviceTests: 16, serviceWorlds: 6, serviceSeeds: 24,
		serviceShapes: fullShapes,
	},
	"tiny": {
		setupReps:    2,
		wholeApps:    []string{"mg", "kmeans"},
		wholeTests:   4,
		wholeSets:    1,
		regionApps:   []string{"mg"},
		regionTests:  5,
		regionSets:   1,
		serviceTests: 4, serviceWorlds: 2, serviceSeeds: 1,
		serviceShapes: tinyShapes,
	},
}

// subSeed derives the seed of distinct campaign k of a workload from the
// run seed, so campaigns of one run are decorrelated and the same run seed
// always yields the same campaigns. The run seed is mixed before any part is
// added: were it added to the parts directly, run seed s+1 would repeat run
// seed s's campaigns shifted by one index.
func subSeed(seed int64, parts ...int) int64 {
	x := splitmix(uint64(seed))
	for _, p := range parts {
		x = splitmix(x + uint64(p))
	}
	return int64(x >> 1)
}

// splitmix is the SplitMix64 step: it advances z by the golden-ratio
// increment and scrambles the result.
func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// observe records the outcome digest a timed campaign produced for key.
// Repeated runs of one campaign must agree exactly; a drift is a
// determinism failure.
func (e *env) observe(key string, digest uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.seen == nil {
		e.seen = map[string]uint64{}
	}
	prev, ok := e.seen[key]
	if !ok {
		e.seen[key] = digest
		e.order = append(e.order, key)
		return
	}
	e.check.expect(prev == digest, "campaign %s: digest %#x, an earlier run of it gave %#x", key, digest, prev)
}

// expect compares the replay's digest for key with the timed runs'. Keys the
// timed phase never reached (it ended before cycling through every campaign)
// have nothing to compare against.
func (e *env) expect(key string, digest uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.forceMismatch && !e.forced {
		e.forced = true
		digest ^= 1
	}
	got, ok := e.seen[key]
	if !ok {
		return
	}
	e.check.expect(got == digest, "campaign %s: timed digest %#x != replay digest %#x", key, got, digest)
}

// unchecked lists timed campaigns the replay never compared, in first-seen
// order; a workload whose replay misses one has a bookkeeping bug.
func (e *env) unchecked(replayed map[string]bool) []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []string
	for _, k := range e.order {
		if !replayed[k] {
			out = append(out, k)
		}
	}
	return out
}

// checker counts attempted and failed operations: campaigns, HTTP requests
// and correctness checks.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

func (c *checker) expect(ok bool, format string, args ...any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.failed++
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

func (c *checker) fail(format string, args ...any) { c.expect(false, format, args...) }

// phase is what one timed stretch of campaigns measured.
type phase struct {
	// faultsPerS is outcomes per second of campaign wall time: the
	// outcomes of every distinct campaign over the sum of their best
	// walls. Campaigns that drew the interpreter's step-limit hang are left
	// out (see slowFactor), so the number of hangs a seed draws does not
	// set it.
	faultsPerS float64

	// campaignMS and firstMS hold each distinct campaign's best wall and
	// best time to its first outcome.
	campaignMS []float64
	firstMS    []float64
	// repeats is the median number of timed runs per distinct campaign;
	// hangs counts the campaigns slowFactor left out of faultsPerS.
	repeats float64
	hangs   int
}

// cases times every distinct campaign of a workload over repeated runs and
// keeps each one's best. The benchmark's CPUs are shared with other
// machines' work: one campaign run on the same code, seconds apart, can
// take up to twice as long when a neighbour is busy, and those slow
// stretches last long enough to move a run's median. The best of runs
// spread over the whole phase is the campaign's own cost.
type cases struct {
	group  []int // the app or spec shape each campaign belongs to
	faults []int // outcomes one run of each campaign delivers
	wall   []time.Duration
	first  []time.Duration
	runs   []int
	// hang marks campaigns slower than slowFactor times their group's
	// median campaign after the first cycle.
	hang []bool
}

func newCases(group, faults []int) *cases {
	n := len(faults)
	return &cases{group: group, faults: faults, wall: make([]time.Duration, n), first: make([]time.Duration, n), runs: make([]int, n), hang: make([]bool, n)}
}

// slowFactor marks a campaign that drew the interpreter's step-limit hang:
// one such fault runs 200M steps, 35 to 1000 times a normal campaign of its
// app or spec shape. After the first cycle a campaign slower than
// slowFactor times its group's median campaign is not repeated and is left
// out of faults_per_s; it stays in the latency percentiles. Otherwise the
// number of hangs a seed draws (0 to 2 in a hundred campaigns) would set
// both how often the other campaigns repeat and most of faults_per_s.
const slowFactor = 20

// cycle runs every distinct campaign once per cycle, in order, so each
// one's repeats spread over the whole phase, and stops once d has passed,
// but not before the first cycle is complete. run reports one run's wall
// and time to first outcome, or ok false if it failed.
func (cs *cases) cycle(d time.Duration, run func(c int) (wall, first time.Duration, ok bool)) {
	start := time.Now()
	for r := 0; ; r++ {
		for c := range cs.wall {
			if r > 0 && time.Since(start) >= d {
				return
			}
			if cs.hang[c] {
				continue
			}
			wall, first, ok := run(c)
			if !ok {
				continue
			}
			if cs.runs[c] == 0 || wall < cs.wall[c] {
				cs.wall[c] = wall
			}
			if cs.runs[c] == 0 || first < cs.first[c] {
				cs.first[c] = first
			}
			cs.runs[c]++
		}
		if r == 0 {
			walls := map[int][]float64{}
			for c, w := range cs.wall {
				if cs.runs[c] > 0 {
					walls[cs.group[c]] = append(walls[cs.group[c]], w.Seconds())
				}
			}
			for c, w := range cs.wall {
				cs.hang[c] = cs.runs[c] > 0 && w.Seconds() > slowFactor*median(walls[cs.group[c]])
			}
		}
	}
}

func (cs *cases) phase() *phase {
	ph := &phase{}
	var runs []float64
	var faults, wall float64
	for c, n := range cs.runs {
		if n == 0 {
			continue
		}
		ph.campaignMS = append(ph.campaignMS, ms(cs.wall[c]))
		ph.firstMS = append(ph.firstMS, ms(cs.first[c]))
		runs = append(runs, float64(n))
		if cs.hang[c] {
			ph.hangs++
			continue
		}
		faults += float64(cs.faults[c])
		wall += cs.wall[c].Seconds()
	}
	ph.faultsPerS = ratio(faults, wall)
	ph.repeats = median(runs)
	return ph
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolation quantile of xs (q in [0, 1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
