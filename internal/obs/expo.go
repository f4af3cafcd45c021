package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// ReadOnly guards an observability endpoint: GET and HEAD only (405 with
// Allow otherwise), a fixed Content-Type, and Cache-Control: no-store.
func ReadOnly(contentType string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", contentType)
		w.Header().Set("Cache-Control", "no-store")
		h(w, r)
	}
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as plain samples, duration
// histograms as cumulative le-bucketed histograms in seconds.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, name := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		cum := int64(0)
		for i, c := range h.Buckets {
			cum += c
			if c == 0 && BucketBound(i) != -1 {
				continue // elide empty finite buckets to keep scrapes small
			}
			le := "+Inf"
			if bound := BucketBound(i); bound != -1 {
				le = strconv.FormatFloat(float64(bound)/1e9, 'g', -1, 64)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum); err != nil {
				return err
			}
		}
		// Always emit the +Inf bucket even when the overflow bucket is empty.
		if h.Buckets[len(h.Buckets)-1] == 0 {
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n",
			name, h.Sum.Seconds(), name, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// jsonHistogram is the JSON shape of one histogram.
type jsonHistogram struct {
	Count     int64   `json:"count"`
	SumNanos  int64   `json:"sum_nanos"`
	MeanNanos float64 `json:"mean_nanos"`
}

// jsonSnapshot is the JSON shape of a snapshot.
type jsonSnapshot struct {
	Counters   map[string]int64         `json:"counters"`
	Gauges     map[string]int64         `json:"gauges"`
	Histograms map[string]jsonHistogram `json:"histograms"`
}

// WriteJSON renders the snapshot as a stable JSON document (histograms
// collapse to count/sum/mean; full buckets are a Prometheus concern).
func (s Snapshot) WriteJSON(w io.Writer) error {
	out := jsonSnapshot{
		Counters:   s.Counters,
		Gauges:     s.Gauges,
		Histograms: map[string]jsonHistogram{},
	}
	for name, h := range s.Histograms {
		jh := jsonHistogram{Count: h.Count, SumNanos: h.Sum.Nanoseconds()}
		if h.Count > 0 {
			jh.MeanNanos = float64(h.Sum.Nanoseconds()) / float64(h.Count)
		}
		out.Histograms[name] = jh
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// DiffCounters returns counters whose value grew relative to an earlier
// snapshot, keyed by name — the "metrics next to each timing" summary
// cmd/laqy-bench prints after each experiment.
func (s Snapshot) DiffCounters(earlier Snapshot) map[string]int64 {
	out := map[string]int64{}
	for name, v := range s.Counters {
		if d := v - earlier.Counters[name]; d != 0 {
			out[name] = d
		}
	}
	return out
}
