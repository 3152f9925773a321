package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"testing"
)

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs one workload at the smoke-test size and parses its result
// line.
func runTiny(t *testing.T, workload string, trace int, extra ...string) (int, string, result) {
	t.Helper()
	args := append([]string{
		"--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", fmt.Sprint(trace),
		"--scale", "tiny", "--out", t.TempDir(),
	}, extra...)
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	out := strings.TrimSpace(stdout.String())
	var res result
	if err := json.Unmarshal([]byte(out[strings.LastIndexByte(out, '\n')+1:]), &res); err != nil {
		t.Fatalf("%s trace %d: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", workload, trace, err, out, stderr.String())
	}
	return code, out, res
}

// TestEveryMetricPrints runs each workload untraced and traced and checks
// that every named metric prints with its unit, that the result object
// holds exactly the result metrics, and that nothing failed.
func TestEveryMetricPrints(t *testing.T) {
	for _, w := range []string{"whole-plain", "region-analyzed", "service-journaled"} {
		for trace, defs := range [][]metricDef{endToEndMetrics, layerMetrics} {
			code, out, res := runTiny(t, w, trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: exit %d, correct %v, %d failed of %d\n%s", w, trace, code, res.Correct, res.Failed, res.Attempted, out)
			}
			want := 0
			for _, d := range defs {
				line := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(d.name) + ` +-?[0-9.]+ ` + regexp.QuoteMeta(d.unit) + `$`)
				if !line.MatchString(out) {
					t.Errorf("%s trace %d: no metric line for %s in %s", w, trace, d.name, d.unit)
				}
				if !d.result {
					continue
				}
				want++
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace %d: result metric %s = %+v, want unit %s", w, trace, d.name, m, d.unit)
				}
			}
			if len(res.Metrics) != want {
				t.Errorf("%s trace %d: result has %d metrics, want %d", w, trace, len(res.Metrics), want)
			}
		}
	}
}

// TestForcedMismatchFails corrupts one replay digest: the run must count
// the failed check, report a non-zero error rate and exit non-zero.
func TestForcedMismatchFails(t *testing.T) {
	for _, w := range []string{"whole-plain", "service-journaled"} {
		code, out, res := runTiny(t, w, 0, "--force-mismatch")
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s: forced mismatch gave exit %d, correct %v, %d failed", w, code, res.Correct, res.Failed)
		}
		if !regexp.MustCompile(`(?m)^metric error_rate +0\.0*[1-9][0-9]* ratio$`).MatchString(out) {
			t.Errorf("%s: error_rate did not rise:\n%s", w, out)
		}
	}
}
