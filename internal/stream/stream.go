// Package stream adapts LAQy's mergeable samples to sliding-window
// streaming — the extension sketched in the paper's related-work discussion
// (Section 8): "LAQy can be adapted to such streaming scenarios by adding
// the time dimension as an additional predication to each sample and using
// the sample merging techniques to merge samples from different window
// slides."
//
// A WindowedSampler partitions event time into fixed-width slides and
// maintains one stratified sample per slide, with each tuple's timestamp
// captured as an extra column. A window query [from, to] is answered by
// merging the per-slide samples overlapping the window (Algorithm 3 across
// time slices); boundary slides are tightened on the timestamp column —
// the exact mechanism LAQy uses for predicate tightening, applied to time.
// Unlike traditional sliding-window summaries, the merge probabilistically
// rebalances the sub-window samples by their weights, so the result is
// distributed as a direct sample of the window.
package stream

import (
	"fmt"

	"laqy/internal/algebra"
	"laqy/internal/expr"
	"laqy/internal/rng"
	"laqy/internal/sample"
)

// TimeColumn is the name of the implicitly captured timestamp column,
// appended as the last column of every slide sample's schema.
const TimeColumn = "__ts"

// Config parameterizes a WindowedSampler.
type Config struct {
	// Schema lists the captured tuple columns, QCS columns first (the
	// timestamp column is appended automatically).
	Schema sample.Schema
	// QCSWidth is the number of leading stratification columns (0 for a
	// simple per-slide reservoir).
	QCSWidth int
	// K is the per-stratum reservoir capacity within each slide.
	K int
	// SlideWidth is the width of one slide in event-time units.
	SlideWidth int64
	// MaxSlides bounds retention: when exceeded, the oldest slides are
	// dropped (0 = unbounded).
	MaxSlides int
	// Seed drives sampling randomness.
	Seed uint64
}

// slide is one time slice's sample: [start, start+width).
type slide struct {
	start int64
	sam   *sample.Builder
}

// WindowedSampler maintains per-slide stratified samples over an event
// stream. It is not safe for concurrent use.
type WindowedSampler struct {
	cfg      Config
	schema   sample.Schema // cfg.Schema + TimeColumn
	tsIdx    int
	slides   []slide // ascending by start
	gen      *rng.Lehmer64
	observed int64
	dropped  int64 // late tuples older than the retained horizon
	horizon  int64 // lowest admissible slide start (raised by eviction and by Observe's drops)
	hasHzn   bool
	scratch  []int64   // the event being admitted, schema order
	cols     [][]int64 // one-element column views of scratch: a batch of one
}

// New creates a WindowedSampler.
func New(cfg Config) (*WindowedSampler, error) {
	if cfg.SlideWidth <= 0 {
		return nil, fmt.Errorf("stream: slide width %d", cfg.SlideWidth)
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("stream: reservoir capacity %d", cfg.K)
	}
	if cfg.QCSWidth < 0 || cfg.QCSWidth > len(cfg.Schema) || cfg.QCSWidth > sample.MaxQCS {
		return nil, fmt.Errorf("stream: QCS width %d with %d columns", cfg.QCSWidth, len(cfg.Schema))
	}
	if cfg.Schema.Index(TimeColumn) >= 0 {
		return nil, fmt.Errorf("stream: schema already contains %q", TimeColumn)
	}
	schema := append(append(sample.Schema{}, cfg.Schema...), TimeColumn)
	scratch := make([]int64, len(schema))
	cols := make([][]int64, len(schema))
	for c := range cols {
		cols[c] = scratch[c : c+1]
	}
	return &WindowedSampler{
		cfg:     cfg,
		schema:  schema,
		tsIdx:   len(schema) - 1,
		gen:     rng.NewLehmer64(cfg.Seed),
		scratch: scratch,
		cols:    cols,
	}, nil
}

// Schema returns the captured schema including the timestamp column.
func (w *WindowedSampler) Schema() sample.Schema { return w.schema }

// NumSlides returns the number of retained slides.
func (w *WindowedSampler) NumSlides() int { return len(w.slides) }

// Observed returns the number of accepted tuples.
func (w *WindowedSampler) Observed() int64 { return w.observed }

// DroppedLate returns the number of tuples rejected because their slide
// had already been evicted.
func (w *WindowedSampler) DroppedLate() int64 { return w.dropped }

// slideStart returns the slide boundary containing ts.
func (w *WindowedSampler) slideStart(ts int64) int64 {
	s := ts / w.cfg.SlideWidth * w.cfg.SlideWidth
	if ts < 0 && ts%w.cfg.SlideWidth != 0 {
		s -= w.cfg.SlideWidth
	}
	return s
}

// Observe feeds one tuple with its event timestamp, admitted as a batch of
// one. Out-of-order tuples are accepted as long as their slide is still
// retained; older tuples are counted in DroppedLate. So is a tuple whose
// slide would be older than every slide of a window already at MaxSlides:
// its slide would be evicted on arrival, and the horizon rises to the
// oldest retained slide instead.
func (w *WindowedSampler) Observe(ts int64, tuple []int64) error {
	if len(tuple) != len(w.cfg.Schema) {
		return fmt.Errorf("stream: tuple width %d, schema has %d columns", len(tuple), len(w.cfg.Schema))
	}
	start := w.slideStart(ts)
	if m := w.cfg.MaxSlides; m > 0 && len(w.slides) >= m && start < w.slides[0].start {
		w.horizon, w.hasHzn = w.slides[0].start, true
	}
	if w.hasHzn && start < w.horizon {
		// The slide this tuple belongs to has been evicted.
		w.dropped++
		return nil
	}
	sl := w.slideFor(start)
	copy(w.scratch, tuple)
	w.scratch[w.tsIdx] = ts
	sl.sam.ConsiderColumns(w.cols, 1)
	w.observed++
	return nil
}

// slideFor finds or creates the slide starting at start, maintaining
// ascending order and the retention bound.
func (w *WindowedSampler) slideFor(start int64) *slide {
	// The common case is the newest slide.
	if n := len(w.slides); n > 0 && w.slides[n-1].start == start {
		return &w.slides[n-1]
	}
	// Binary search for an existing slide.
	lo, hi := 0, len(w.slides)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		switch {
		case w.slides[mid].start == start:
			return &w.slides[mid]
		case w.slides[mid].start < start:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	sl := slide{
		start: start,
		sam: sample.NewBuilder(w.schema, w.cfg.QCSWidth, w.cfg.K,
			w.gen.Split(uint64(start)+0x51de)),
	}
	w.slides = append(w.slides, slide{})
	copy(w.slides[lo+1:], w.slides[lo:])
	w.slides[lo] = sl
	w.evict()
	// Eviction may shift indices; re-find (cheap: the slide exists now).
	for i := range w.slides {
		if w.slides[i].start == start {
			return &w.slides[i]
		}
	}
	// Unreachable: Observe drops a tuple whose new slide would be the
	// oldest of a full window, the only slide eviction could take.
	// invariant: the slide inserted above survives eviction
	panic("stream: slide lost after insertion")
}

// evict drops the oldest slides beyond the retention bound.
func (w *WindowedSampler) evict() {
	if w.cfg.MaxSlides <= 0 {
		return
	}
	for len(w.slides) > w.cfg.MaxSlides {
		w.slides = w.slides[1:]
		w.horizon = w.slides[0].start
		w.hasHzn = true
	}
}

// Window answers a window query [from, to] (closed, event time): the
// overlapping slides' samples are merged into a new sealed sample, which
// shares no storage with the slides; boundary slides are first tightened
// on the timestamp column. The result is distributed as a stratified
// sample of the window's tuples and can be fed to package approx for
// estimates.
func (w *WindowedSampler) Window(from, to int64) (*sample.Stratified, error) {
	if from > to {
		return nil, fmt.Errorf("stream: window [%d, %d] is empty", from, to)
	}
	if w.hasHzn && from < w.horizon {
		// The window reaches past the retention horizon: answering would
		// silently under-count; refuse instead.
		return nil, fmt.Errorf("stream: window start %d precedes the retained horizon %d", from, w.horizon)
	}
	// Boundary slides are tightened on time (rescaling weights, exactly like
	// predicate tightening in §5.2.1).
	onTime, err := expr.CompileTuples(algebra.NewPredicate().WithRange(TimeColumn, from, to), w.schema)
	if err != nil {
		return nil, err
	}
	var parts []sample.Part
	for i := range w.slides {
		sl := &w.slides[i]
		slEnd := sl.start + w.cfg.SlideWidth - 1
		if slEnd < from || sl.start > to {
			continue
		}
		// A whole slide is read through a fork, drawing from the streams
		// a copy of the slide always drew from.
		part := sl.sam.Fork()
		if sl.start < from || slEnd > to {
			part = sl.sam.Filter(onTime)
		}
		parts = append(parts, part)
	}
	if len(parts) == 0 {
		parts = append(parts, sample.NewBuilder(w.schema, w.cfg.QCSWidth, w.cfg.K, w.gen.Split(0xE3B)))
	}
	merged, err := sample.MergeN(parts, w.gen.Split(0x3E6), 1)
	if err != nil {
		return nil, err
	}
	return sample.Seal(merged, 1), nil
}
