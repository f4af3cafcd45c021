package stream

import (
	"math"
	"testing"

	"laqy/internal/approx"
	"laqy/internal/sample"
)

func newSampler(t *testing.T, cfg Config) *WindowedSampler {
	t.Helper()
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func baseConfig() Config {
	return Config{
		Schema:     sample.Schema{"g", "v"},
		QCSWidth:   1,
		K:          100,
		SlideWidth: 100,
		Seed:       1,
	}
}

// windowSum is the SUM estimate of column 1 over every stratum of win.
func windowSum(win *sample.Stratified) float64 {
	var sum float64
	win.ForEach(func(_ sample.StratumKey, r *sample.Reservoir) {
		sum += approx.FromReservoir(r, 1, approx.Sum).Value
	})
	return sum
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Schema: sample.Schema{"v"}, K: 10, SlideWidth: 0},
		{Schema: sample.Schema{"v"}, K: 0, SlideWidth: 10},
		{Schema: sample.Schema{"v"}, K: 10, SlideWidth: 10, QCSWidth: 2},
		{Schema: sample.Schema{"v", TimeColumn}, K: 10, SlideWidth: 10},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestSlideAssignment(t *testing.T) {
	w := newSampler(t, baseConfig())
	for ts := int64(0); ts < 1000; ts++ {
		if err := w.Observe(ts, []int64{ts % 3, ts}); err != nil {
			t.Fatal(err)
		}
	}
	if w.NumSlides() != 10 {
		t.Fatalf("NumSlides = %d, want 10", w.NumSlides())
	}
	if w.Observed() != 1000 {
		t.Fatalf("Observed = %d", w.Observed())
	}
}

func TestSlideStartNegativeTime(t *testing.T) {
	w := newSampler(t, baseConfig())
	if got := w.slideStart(-1); got != -100 {
		t.Fatalf("slideStart(-1) = %d, want -100", got)
	}
	if got := w.slideStart(-100); got != -100 {
		t.Fatalf("slideStart(-100) = %d", got)
	}
	if got := w.slideStart(250); got != 200 {
		t.Fatalf("slideStart(250) = %d", got)
	}
}

func TestWindowExactWhenUnderCapacity(t *testing.T) {
	// With k above the whole window's tuple count, every slide holds its
	// complete input and the merge stays in the append regime: window
	// aggregates match truth exactly.
	cfg := baseConfig()
	cfg.K = 1000
	w := newSampler(t, cfg)
	var want float64
	for ts := int64(0); ts < 500; ts++ {
		w.Observe(ts, []int64{0, ts})
		if ts >= 100 && ts <= 399 {
			want += float64(ts)
		}
	}
	win, err := w.Window(100, 399)
	if err != nil {
		t.Fatal(err)
	}
	if win.TotalWeight() != 300 {
		t.Fatalf("window weight = %v, want 300", win.TotalWeight())
	}
	if got := windowSum(win); got != want {
		t.Fatalf("window sum = %v, want exact %v", got, want)
	}
}

func TestWindowBoundaryTightening(t *testing.T) {
	// A window cutting through slides must tighten boundary slides on the
	// timestamp: no tuple outside [from, to] may appear.
	w := newSampler(t, baseConfig())
	for ts := int64(0); ts < 1000; ts++ {
		w.Observe(ts, []int64{ts % 2, ts})
	}
	win, err := w.Window(150, 849)
	if err != nil {
		t.Fatal(err)
	}
	tsIdx := win.Schema().Index(TimeColumn)
	win.ForEach(func(_ sample.StratumKey, r *sample.Reservoir) {
		for i := 0; i < r.Len(); i++ {
			ts := r.Tuple(i)[tsIdx]
			if ts < 150 || ts > 849 {
				t.Fatalf("tuple with ts %d leaked into window [150, 849]", ts)
			}
		}
	})
}

func TestWindowEstimateAccuracyUnderSampling(t *testing.T) {
	// Heavy stream: k per slide is small, so the window estimate is
	// genuinely sampled; it must track the true sum.
	cfg := baseConfig()
	cfg.K = 200
	cfg.SlideWidth = 10_000
	w := newSampler(t, cfg)
	var want float64
	const n = 200_000
	for ts := int64(0); ts < n; ts++ {
		v := ts % 1000
		w.Observe(ts, []int64{ts % 4, v})
		if ts >= 30_000 && ts <= 169_999 {
			want += float64(v)
		}
	}
	win, err := w.Window(30_000, 169_999)
	if err != nil {
		t.Fatal(err)
	}
	if win.TotalWeight() != 140_000 {
		t.Fatalf("window weight = %v, want 140000", win.TotalWeight())
	}
	if got := windowSum(win); approx.RelativeError(got, want) > 0.10 {
		t.Fatalf("window sum estimate %v vs true %v", got, want)
	}
}

func TestRetentionEviction(t *testing.T) {
	cfg := baseConfig()
	cfg.MaxSlides = 3
	w := newSampler(t, cfg)
	for ts := int64(0); ts < 1000; ts++ {
		w.Observe(ts, []int64{0, ts})
	}
	if w.NumSlides() != 3 {
		t.Fatalf("NumSlides = %d, want 3", w.NumSlides())
	}
	// Windows reaching past the horizon are refused, not silently wrong.
	if _, err := w.Window(0, 999); err == nil {
		t.Fatal("window past the horizon must error")
	}
	// A window inside the horizon works.
	win, err := w.Window(700, 999)
	if err != nil {
		t.Fatal(err)
	}
	if win.TotalWeight() != 300 {
		t.Fatalf("weight = %v", win.TotalWeight())
	}
}

func TestLateArrivals(t *testing.T) {
	cfg := baseConfig()
	cfg.MaxSlides = 2
	w := newSampler(t, cfg)
	for ts := int64(0); ts < 300; ts++ {
		w.Observe(ts, []int64{0, ts})
	}
	// Slides [100,199] and [200,299] are retained. A tuple for ts=150 is
	// late but lands in a retained slide: accepted.
	if err := w.Observe(150, []int64{0, 150}); err != nil {
		t.Fatal(err)
	}
	if w.DroppedLate() != 0 {
		t.Fatalf("in-horizon late tuple dropped")
	}
	// ts=50 belongs to an evicted slide: dropped and counted.
	if err := w.Observe(50, []int64{0, 50}); err != nil {
		t.Fatal(err)
	}
	if w.DroppedLate() != 1 {
		t.Fatalf("DroppedLate = %d, want 1", w.DroppedLate())
	}
}

// TestLateEventOlderThanFullWindow: with the window at MaxSlides and nothing
// evicted yet, an event older than every retained slide would get a slide
// that eviction takes at once. It is dropped as late, and the horizon rises
// so that a window reaching back to it is refused, not under-counted.
func TestLateEventOlderThanFullWindow(t *testing.T) {
	cfg := baseConfig()
	cfg.MaxSlides = 2
	w := newSampler(t, cfg)
	for _, ts := range []int64{100, 200, 0} {
		if err := w.Observe(ts, []int64{0, ts}); err != nil {
			t.Fatal(err)
		}
	}
	if w.DroppedLate() != 1 || w.Observed() != 2 || w.NumSlides() != 2 {
		t.Fatalf("dropped=%d observed=%d slides=%d, want 1, 2, 2", w.DroppedLate(), w.Observed(), w.NumSlides())
	}
	if _, err := w.Window(0, 299); err == nil {
		t.Fatal("a window reaching the dropped event must error")
	}
	win, err := w.Window(100, 299)
	if err != nil {
		t.Fatal(err)
	}
	if win.TotalWeight() != 2 {
		t.Fatalf("weight = %v, want 2", win.TotalWeight())
	}
}

func TestOutOfOrderWithinHorizon(t *testing.T) {
	w := newSampler(t, baseConfig())
	// Feed slides out of order: 200s first, then 0s, then 100s.
	for _, base := range []int64{200, 0, 100} {
		for off := int64(0); off < 100; off++ {
			w.Observe(base+off, []int64{0, base + off})
		}
	}
	if w.NumSlides() != 3 {
		t.Fatalf("NumSlides = %d", w.NumSlides())
	}
	win, err := w.Window(0, 299)
	if err != nil {
		t.Fatal(err)
	}
	if win.TotalWeight() != 300 {
		t.Fatalf("weight = %v", win.TotalWeight())
	}
	// Slides must be kept in ascending order.
	for i := 1; i < len(w.slides); i++ {
		if w.slides[i-1].start >= w.slides[i].start {
			t.Fatal("slides out of order")
		}
	}
}

func TestEmptyWindow(t *testing.T) {
	w := newSampler(t, baseConfig())
	for ts := int64(0); ts < 100; ts++ {
		w.Observe(ts, []int64{0, ts})
	}
	if _, err := w.Window(500, 100); err == nil {
		t.Fatal("inverted window must error")
	}
	win, err := w.Window(5000, 6000)
	if err != nil {
		t.Fatal(err)
	}
	if win.TotalWeight() != 0 || win.NumStrata() != 0 {
		t.Fatal("disjoint window should be empty")
	}
}

func TestObserveWidthMismatch(t *testing.T) {
	w := newSampler(t, baseConfig())
	if err := w.Observe(0, []int64{1}); err == nil {
		t.Fatal("wrong tuple width must error")
	}
}

func TestWindowDoesNotConsumeSlides(t *testing.T) {
	// Window queries must not mutate the retained slides: issuing the same
	// window twice yields samples with identical weights.
	w := newSampler(t, baseConfig())
	for ts := int64(0); ts < 1000; ts++ {
		w.Observe(ts, []int64{ts % 3, ts})
	}
	a, err := w.Window(100, 899)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.Window(100, 899)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.TotalWeight()-b.TotalWeight()) > 1e-9 {
		t.Fatalf("repeated window weights differ: %v vs %v", a.TotalWeight(), b.TotalWeight())
	}
	// The slides themselves still hold the full stream.
	full, err := w.Window(0, 999)
	if err != nil {
		t.Fatal(err)
	}
	if full.TotalWeight() != 1000 {
		t.Fatalf("slides were consumed: full weight = %v", full.TotalWeight())
	}
}

func TestSlidingWindowProgression(t *testing.T) {
	// Simulate a dashboard sliding a fixed-width window over the stream:
	// each step's weight equals the window width once the stream is dense.
	w := newSampler(t, baseConfig())
	for ts := int64(0); ts < 2000; ts++ {
		w.Observe(ts, []int64{ts % 3, ts % 7})
	}
	for from := int64(0); from+499 < 2000; from += 250 {
		win, err := w.Window(from, from+499)
		if err != nil {
			t.Fatal(err)
		}
		if win.TotalWeight() != 500 {
			t.Fatalf("window [%d, %d] weight = %v, want 500", from, from+499, win.TotalWeight())
		}
	}
}

func BenchmarkObserve(b *testing.B) {
	w, err := New(baseConfig())
	if err != nil {
		b.Fatal(err)
	}
	tuple := []int64{0, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tuple[0] = int64(i % 3)
		tuple[1] = int64(i)
		w.Observe(int64(i), tuple)
	}
}

func BenchmarkWindowQuery(b *testing.B) {
	cfg := baseConfig()
	cfg.SlideWidth = 10_000
	w, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for ts := int64(0); ts < 1_000_000; ts++ {
		w.Observe(ts, []int64{ts % 3, ts})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Window(200_000, 799_999); err != nil {
			b.Fatal(err)
		}
	}
}
