package obs

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Attr is one key=value annotation on a span (e.g. the matched sample's
// predicate on a reuse-decision span).
type Attr struct {
	Key   string
	Value string
}

// Span is one timed node of a query trace. Spans form a tree; children are
// appended under a mutex so concurrent phases (e.g. morsel workers
// reporting per-pipeline summaries) are safe. The nil Span is a valid
// no-op: every method on it returns immediately, so instrumented code can
// call SpanFrom(ctx).Start(...) unconditionally — when tracing is off the
// whole chain collapses to a nil check.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time
	attrs    []Attr
	children []*Span
}

// Start opens a child span. On a nil receiver it returns nil.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	child := &Span{name: name, start: Clock()}
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
	return child
}

// Record attaches an already-measured child span — for phases whose timing
// was captured before the trace existed (e.g. parse, measured before the
// parser reveals that the statement is an EXPLAIN ANALYZE).
func (s *Span) Record(name string, start time.Time, end time.Time) *Span {
	if s == nil {
		return nil
	}
	child := &Span{name: name, start: start, end: end}
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
	return child
}

// End closes the span. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = Clock()
	}
	s.mu.Unlock()
}

// SetAttr annotates the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetAttrInt annotates the span with an integer value. On a nil receiver it
// formats nothing, so an untraced query pays no allocation for it.
func (s *Span) SetAttrInt(key string, value int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(value, 10))
}

// Name returns the span's name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the span's closed duration (End..Start); an unclosed
// span reports the elapsed time so far.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return Since(s.start)
	}
	return s.end.Sub(s.start)
}

// Attrs returns a copy of the span's annotations.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Children returns a copy of the span's child list.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Trace is one query's span tree.
type Trace struct {
	root *Span
}

// NewTrace starts a trace whose root span is open.
func NewTrace(name string) *Trace {
	return &Trace{root: &Span{name: name, start: Clock()}}
}

// Root returns the root span (nil for a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Render pretty-prints the span tree: one line per span with its duration
// and attributes, indented by depth — the body of EXPLAIN ANALYZE.
func (t *Trace) Render() string {
	if t == nil || t.root == nil {
		return ""
	}
	var b strings.Builder
	renderSpan(&b, t.root, 0)
	return b.String()
}

func renderSpan(b *strings.Builder, s *Span, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%-*s %12s", 36-2*depth, s.Name(), formatDuration(s.Duration()))
	if attrs := s.Attrs(); len(attrs) > 0 {
		b.WriteString("  [")
		for i, a := range attrs {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(b, "%s=%s", a.Key, a.Value)
		}
		b.WriteString("]")
	}
	b.WriteString("\n")
	for _, c := range s.Children() {
		renderSpan(b, c, depth+1)
	}
}

// formatDuration renders a duration with ~3 significant digits in a unit
// that keeps the mantissa readable.
func formatDuration(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// Context plumbing: the active span and the metrics registry ride the
// query's context through internal/sql → core → engine, so deep layers
// instrument themselves without signature changes.

type spanKey struct{}
type registryKey struct{}
type requestIDKey struct{}

// WithSpan returns a context carrying span as the active trace span.
func WithSpan(ctx context.Context, span *Span) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, spanKey{}, span)
}

// SpanFrom returns the active span, or nil when the context carries none
// (including a nil context) — combined with nil-safe span methods, callers
// never branch on tracing being enabled.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// WithRegistry returns a context carrying the metrics registry.
func WithRegistry(ctx context.Context, reg *Registry) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, registryKey{}, reg)
}

// RegistryFrom returns the context's registry, or nil (a valid disabled
// registry) when absent.
func RegistryFrom(ctx context.Context) *Registry {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(registryKey{}).(*Registry)
	return r
}

// WithRequestID returns a context carrying a request-scoped trace ID — the
// identifier a serving layer (laqyd) assigns to one client request so its
// spans, error responses, and log lines correlate. An empty id returns ctx
// unchanged.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom returns the context's request ID, or "" when none was
// assigned (embedded-library callers).
func RequestIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}
