// Telemetry: the public face of the internal/obs subsystem — leveled
// logging, metrics snapshots (per-DB and process-wide), an HTTP handler
// exposing Prometheus/JSON metrics and the sample-store debug view, and
// the typed query trace attached to Results. See docs/OBSERVABILITY.md.

package laqy

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"laqy/internal/obs"
)

// WithRequestID returns a context carrying a request-scoped trace ID.
// When the query runs with tracing enabled the ID is attached to the
// trace's root span (attribute "request_id"), so a serving layer can
// correlate wire responses, log lines, and EXPLAIN ANALYZE output for one
// client request. An empty id returns ctx unchanged.
func WithRequestID(ctx context.Context, id string) context.Context {
	return obs.WithRequestID(ctx, id)
}

// RequestIDFrom returns the request ID carried by ctx, or "".
func RequestIDFrom(ctx context.Context) string {
	return obs.RequestIDFrom(ctx)
}

// LogLevel classifies a diagnostic message.
type LogLevel int

const (
	// LogDebug is detailed tracing output.
	LogDebug LogLevel = iota
	// LogInfo is routine operational information.
	LogInfo
	// LogWarn is a non-fatal problem (e.g. a salvaged sample store).
	LogWarn
	// LogError is a failure the caller will also see as an error.
	LogError
)

// String implements fmt.Stringer.
func (l LogLevel) String() string {
	switch l {
	case LogDebug:
		return "debug"
	case LogInfo:
		return "info"
	case LogWarn:
		return "warn"
	case LogError:
		return "error"
	default:
		return "unknown"
	}
}

// Logger receives leveled diagnostics from a DB (Config.Logger); when none
// is set, LogWarn and above go to the standard logger. Implementations must
// be safe for concurrent use.
type Logger interface {
	Logf(level LogLevel, format string, args ...any)
}

// MetricsSnapshot is a point-in-time copy of metric values: monotonically
// increasing counters, instantaneous gauges, and duration histograms
// (collapsed to count/sum/mean; the full bucket vectors are available in
// Prometheus form via DB.Handler). The metric catalog is documented in
// docs/OBSERVABILITY.md.
type MetricsSnapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramStat
}

// HistogramStat summarizes one duration histogram.
type HistogramStat struct {
	// Count is the number of observations.
	Count int64
	// Sum is the total observed duration.
	Sum time.Duration
	// Mean is Sum/Count (0 when empty).
	Mean time.Duration
}

// fromObsSnapshot converts the internal snapshot to the public shape.
func fromObsSnapshot(s obs.Snapshot) MetricsSnapshot {
	out := MetricsSnapshot{
		Counters:   s.Counters,
		Gauges:     s.Gauges,
		Histograms: map[string]HistogramStat{},
	}
	for name, h := range s.Histograms {
		st := HistogramStat{Count: h.Count, Sum: h.Sum}
		if h.Count > 0 {
			st.Mean = h.Sum / time.Duration(h.Count)
		}
		out.Histograms[name] = st
	}
	return out
}

// allRegistries tracks every open DB's registry so the package-level
// Metrics() can aggregate the whole process. Registries are a few KB each
// and DBs have process lifetime in practice, so entries are never removed.
var allRegistries struct {
	mu   sync.Mutex
	regs []*obs.Registry
}

func registerRegistry(r *obs.Registry) {
	if r == nil || r == obs.Disabled {
		return
	}
	allRegistries.mu.Lock()
	allRegistries.regs = append(allRegistries.regs, r)
	allRegistries.mu.Unlock()
}

// Metrics returns a merged snapshot over every DB opened by this process
// (counters and gauges sum, histograms add). Per-DB views come from
// DB.Metrics.
func Metrics() MetricsSnapshot {
	allRegistries.mu.Lock()
	regs := append([]*obs.Registry(nil), allRegistries.regs...)
	allRegistries.mu.Unlock()
	merged := obs.Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]obs.HistogramSnapshot{},
	}
	for _, r := range regs {
		merged.Merge(r.Snapshot())
	}
	return fromObsSnapshot(merged)
}

// Metrics returns a snapshot of this DB's metric values. With
// Config.DisableMetrics the snapshot is empty.
func (db *DB) Metrics() MetricsSnapshot {
	return fromObsSnapshot(db.reg.Snapshot())
}

// SetTracing enables or disables per-query tracing: when on, every Result
// carries a Trace (EXPLAIN ANALYZE forces a trace for its own query
// regardless). Tracing costs a handful of small allocations per query
// phase; the morsel hot loop is never touched.
func (db *DB) SetTracing(on bool) { db.traceOn.Store(on) }

// Handler returns an http.Handler exposing the DB's observability
// endpoints:
//
//	/metrics              Prometheus text format
//	/metrics.json         JSON snapshot
//	/debug/laqy/samples   cached samples (input, predicate, size)
//
// All endpoints are read-only: non-GET/HEAD methods are rejected with 405
// and an Allow header, and every response carries Cache-Control: no-store
// (metrics and debug views are point-in-time; a cached copy is a lie).
// Mount it wherever the embedding process serves debug traffic, e.g.
// http.ListenAndServe(":9090", db.Handler()); laqyd mounts it per tenant
// under /tenants/<name>/ (docs/SERVING.md).
func (db *DB) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", obs.ReadOnly("text/plain; version=0.0.4; charset=utf-8",
		func(w http.ResponseWriter, r *http.Request) {
			if err := db.reg.Snapshot().WritePrometheus(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}))
	mux.HandleFunc("/metrics.json", obs.ReadOnly("application/json",
		func(w http.ResponseWriter, r *http.Request) {
			if err := db.reg.Snapshot().WriteJSON(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}))
	mux.HandleFunc("/debug/laqy/samples", obs.ReadOnly("text/plain; charset=utf-8",
		func(w http.ResponseWriter, r *http.Request) {
			stats := db.SampleStoreStats()
			_, _ = fmt.Fprintf(w, "samples=%d bytes=%d full=%d partial=%d miss=%d evicted=%d\n\n",
				stats.Samples, stats.Bytes, stats.FullReuses, stats.PartialReuses, stats.Misses, stats.Evictions)
			for i, s := range db.Samples() {
				_, _ = fmt.Fprintf(w, "[%d] input=%s pred=%s qcs=%v qvs=%v k=%d strata=%d rows=%d weight=%.0f bytes=%d\n",
					i, s.Input, s.Predicate, s.QCS, s.QVS, s.K, s.Strata, s.Rows, s.Weight, s.Bytes)
			}
		}))
	return mux
}

// TraceAttr is one key=value annotation on a trace span.
type TraceAttr struct {
	Key   string
	Value string
}

// TraceSpan is one timed node of a query trace: a phase of the query
// lifecycle with its wall time, annotations, and sub-phases.
type TraceSpan struct {
	// Name identifies the phase ("parse", "store lookup", "pipeline", …).
	Name string
	// Duration is the phase's wall time.
	Duration time.Duration
	// Attrs annotates the phase (e.g. the reuse decision and the matched
	// sample's predicate on a "store lookup" span).
	Attrs []TraceAttr
	// Children are the nested sub-phases in start order.
	Children []*TraceSpan
}

// QueryTrace is the annotated phase tree of one executed query — the typed
// form of what EXPLAIN ANALYZE renders.
type QueryTrace struct {
	// Root spans the whole query.
	Root *TraceSpan
}

// Render pretty-prints the trace as an indented tree, one line per phase.
func (t *QueryTrace) Render() string {
	if t == nil || t.Root == nil {
		return ""
	}
	return renderPublicSpan(t.Root, 0)
}

func renderPublicSpan(s *TraceSpan, depth int) string {
	out := ""
	for i := 0; i < depth; i++ {
		out += "  "
	}
	out += fmt.Sprintf("%-*s %12s", 36-2*depth, s.Name, s.Duration)
	if len(s.Attrs) > 0 {
		out += "  ["
		for i, a := range s.Attrs {
			if i > 0 {
				out += " "
			}
			out += a.Key + "=" + a.Value
		}
		out += "]"
	}
	out += "\n"
	for _, c := range s.Children {
		out += renderPublicSpan(c, depth+1)
	}
	return out
}

// traceFromObs deep-copies the internal span tree into the public shape.
func traceFromObs(tr *obs.Trace) *QueryTrace {
	if tr == nil || tr.Root() == nil {
		return nil
	}
	return &QueryTrace{Root: spanFromObs(tr.Root())}
}

func spanFromObs(s *obs.Span) *TraceSpan {
	out := &TraceSpan{Name: s.Name(), Duration: s.Duration()}
	for _, a := range s.Attrs() {
		out.Attrs = append(out.Attrs, TraceAttr{Key: a.Key, Value: a.Value})
	}
	for _, c := range s.Children() {
		out.Children = append(out.Children, spanFromObs(c))
	}
	return out
}

// dbMetrics caches the frontend's obs instruments.
type dbMetrics struct {
	parse, parseErrors      *obs.Counter
	plan, planErrors        *obs.Counter
	queries, queryErrors    *obs.Counter
	querySeconds            *obs.Histogram
	retries, exactFallbacks *obs.Counter
	traces, explainAnalyze  *obs.Counter
	modes                   [5]*obs.Counter // indexed by Mode
}

func newDBMetrics(reg *obs.Registry) dbMetrics {
	m := dbMetrics{
		parse:          reg.Counter(obs.MParseTotal),
		parseErrors:    reg.Counter(obs.MParseErrors),
		plan:           reg.Counter(obs.MPlanTotal),
		planErrors:     reg.Counter(obs.MPlanErrors),
		queries:        reg.Counter(obs.MQueriesTotal),
		queryErrors:    reg.Counter(obs.MQueryErrors),
		querySeconds:   reg.Histogram(obs.MQuerySeconds),
		retries:        reg.Counter(obs.MErrorRetries),
		exactFallbacks: reg.Counter(obs.MExactFallbacks),
		traces:         reg.Counter(obs.MTracesTotal),
		explainAnalyze: reg.Counter(obs.MExplainAnalyzeTotal),
	}
	for mode := ModeExact; mode <= ModeExactFallback; mode++ {
		m.modes[mode] = reg.Counter(obs.MModePrefix + mode.String() + "_total")
	}
	return m
}

// mode returns the counter for an execution mode (nil-safe on unknowns).
func (m *dbMetrics) mode(mode Mode) *obs.Counter {
	if mode < 0 || int(mode) >= len(m.modes) {
		return nil
	}
	return m.modes[mode]
}
