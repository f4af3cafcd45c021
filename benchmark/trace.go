package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"laqy"
)

// The span recorder of the traced run. Spans are recorded by the benchmark
// around each public call it makes; the program's own phase tree
// (Result.Trace, public since PR 3) is grafted under the call that returned
// it. Nothing is recorded inside the program.

type span struct {
	ID     int `json:"id"`
	Parent int `json:"parent"` // -1 for the root span of an op
	// Op is "workload/op#", shared by all spans of one op.
	Op   string `json:"op"`
	Name string `json:"name"`
	// StartNS counts from the recorder's start. The program reports phase
	// durations without start times, so a grafted span carries the start of
	// the call it was grafted under.
	StartNS int64             `json:"start_ns"`
	DurNS   int64             `json:"dur_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced run shares the traced run's code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished span and returns its id (-1 on a nil recorder).
func (r *recorder) add(parent int, op, name string, start time.Time, dur time.Duration, attrs map[string]string) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		StartNS: start.Sub(r.t0).Nanoseconds(), DurNS: dur.Nanoseconds(), Attrs: attrs})
	return id
}

// finish sets the duration of a span opened with a zero duration.
func (r *recorder) finish(id int, dur time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id].DurNS = dur.Nanoseconds()
	r.mu.Unlock()
}

// layerNames maps the program's phase names onto <module>.<phase>. A phase
// this table does not know keeps its name under "laqy.": a renamed or new
// phase shows up in the table instead of failing the run.
var layerNames = map[string]string{
	"parse":         "sql.parse",
	"plan":          "sql.plan",
	"admission":     "governor.admission",
	"store lookup":  "store.lookup",
	"online sample": "core.online_sample",
	"Δ-sample":      "core.delta_sample",
	"merge":         "core.merge",
	"tighten":       "core.tighten",
	"pipeline":      "engine.pipeline",
	"segments":      "engine.segments",
}

// graft copies the children of a program phase tree under parent.
func (r *recorder) graft(parent int, op string, start time.Time, t *laqy.TraceSpan) {
	if r == nil || t == nil {
		return
	}
	for _, c := range t.Children {
		name, ok := layerNames[c.Name]
		if !ok {
			name = "laqy." + c.Name
		}
		var attrs map[string]string
		if len(c.Attrs) > 0 {
			attrs = make(map[string]string, len(c.Attrs))
			for _, a := range c.Attrs {
				attrs[a.Key] = a.Value
			}
		}
		r.graft(r.add(parent, op, name, start, c.Duration, attrs), op, start, c)
	}
}

// durations returns the durations of every span with the given name.
func (r *recorder) durations(name string) []time.Duration {
	if r == nil {
		return nil
	}
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.DurNS))
		}
	}
	return out
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Name    string  `json:"name"`
	N       int     `json:"n"`
	TotalMS float64 `json:"total_ms"`
	// SelfMS is the span's time less what its direct children account for.
	// Children that ran in parallel (per-segment pipelines) can sum past
	// their parent; self time is then counted as zero, not negative.
	SelfMS    float64 `json:"self_ms"`
	SelfP50US float64 `json:"self_p50_us"`
}

func (r *recorder) layerTable() []layerRow {
	if r == nil {
		return nil
	}
	childSum := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.DurNS
		}
	}
	type acc struct {
		total int64
		selfs []time.Duration
	}
	byName := map[string]*acc{}
	for _, s := range r.spans {
		a := byName[s.Name]
		if a == nil {
			a = &acc{}
			byName[s.Name] = a
		}
		self := s.DurNS - childSum[s.ID]
		if self < 0 {
			self = 0
		}
		a.total += s.DurNS
		a.selfs = append(a.selfs, time.Duration(self))
	}
	var rows []layerRow
	for name, a := range byName {
		var self time.Duration
		for _, d := range a.selfs {
			self += d
		}
		rows = append(rows, layerRow{Name: name, N: len(a.selfs), TotalMS: float64(a.total) / 1e6,
			SelfMS: ms(self), SelfP50US: us(percentile(a.selfs, 0.5))})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMS > rows[j].SelfMS })
	return rows
}

func printLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-24s %8s %12s %12s %12s\n", "span", "n", "total_ms", "self_ms", "self_p50_us")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %8d %12.2f %12.2f %12.1f\n", r.Name, r.N, r.TotalMS, r.SelfMS, r.SelfP50US)
	}
}

// writeFile writes all spans once, after the run.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []span `json:"spans"`
	}{r.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
