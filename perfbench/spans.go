package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary. ID names the campaign ("cg/k2") or fault ("cg/k2#17")
// the call worked for; Parent indexes the span that caused it (-1: none).
type span struct {
	Name   string        `json:"name"`
	ID     string        `json:"id"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Self   time.Duration `json:"self_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so untraced code paths pay one nil check per boundary.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name, id string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	return len(r.spans) - 1
}

// end closes span i.
func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// add records a span whose interval is already known.
func (r *recorder) add(name, id string, parent int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
	r.mu.Unlock()
}

// finish computes every span's self time: its duration minus the part of
// its interval covered by the union of its children (children of parallel
// workers may overlap each other).
func (r *recorder) finish() {
	kids := map[int][]int{}
	for i, s := range r.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		if s.End < s.Start {
			s.End = s.Start
		}
		ch := kids[i]
		sort.Slice(ch, func(a, b int) bool { return r.spans[ch[a]].Start < r.spans[ch[b]].Start })
		covered := time.Duration(0)
		curLo, curHi := time.Duration(-1), time.Duration(-1)
		for _, c := range ch {
			lo, hi := max(r.spans[c].Start, s.Start), min(r.spans[c].End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				covered += curHi - curLo
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		covered += curHi - curLo
		s.Self = s.End - s.Start - covered
	}
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Count int
	Total time.Duration
	Self  time.Duration
	Max   time.Duration
}

func (r *recorder) stats() map[string]*layerStat {
	out := map[string]*layerStat{}
	for _, s := range r.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.Total += d
		st.Self += s.Self
		st.Max = max(st.Max, d)
	}
	return out
}

// meanMS is the mean duration of the named spans in milliseconds (0 when
// the workload never crossed that boundary).
func meanMS(st map[string]*layerStat, names ...string) float64 {
	var n int
	var total time.Duration
	for _, name := range names {
		if s := st[name]; s != nil {
			n += s.Count
			total += s.Total
		}
	}
	if n == 0 {
		return 0
	}
	return ms(total) / float64(n)
}

// printTable writes the per-name span summary, slowest total first.
func (r *recorder) printTable(w io.Writer) {
	st := r.stats()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return st[names[a]].Total > st[names[b]].Total })
	fmt.Fprintf(w, "%-24s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "mean_us")
	for _, n := range names {
		s := st[n]
		fmt.Fprintf(w, "%-24s %8d %12.3f %12.3f %12.3f\n", n, s.Count, ms(s.Total), ms(s.Self),
			float64(s.Total)/float64(time.Microsecond)/float64(s.Count))
	}
}

// write stores every span, with self times, as one JSON document.
func (r *recorder) write(path string, b box) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Box   box    `json:"box"`
		Spans []span `json:"spans"`
	}{b, r.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
