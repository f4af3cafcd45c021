package laqy

import (
	"math"
	"testing"
)

func TestWindowedBasics(t *testing.T) {
	w, err := NewWindowed(WindowConfig{
		Columns:    []string{"g", "v"},
		GroupBy:    1,
		K:          1000,
		SlideWidth: 100,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want [2]float64
	for ts := int64(0); ts < 1000; ts++ {
		g := ts % 2
		if err := w.Observe(ts, []int64{g, ts}); err != nil {
			t.Fatal(err)
		}
		if ts >= 200 && ts <= 799 {
			want[g] += float64(ts)
		}
	}
	if w.Observed() != 1000 || w.DroppedLate() != 0 {
		t.Fatalf("observed=%d dropped=%d", w.Observed(), w.DroppedLate())
	}
	groups, err := w.Aggregate(200, 799, "v", Sum)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("%d groups", len(groups))
	}
	for _, g := range groups {
		// k=1000 over 300 tuples/group/slide: exact.
		if g.Value.Value != want[g.Key[0]] {
			t.Fatalf("group %d sum = %v, want %v", g.Key[0], g.Value.Value, want[g.Key[0]])
		}
	}
}

func TestWindowedAggKinds(t *testing.T) {
	w, err := NewWindowed(WindowConfig{
		Columns:    []string{"v"},
		GroupBy:    0,
		K:          10000,
		SlideWidth: 1000,
		Seed:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for ts := int64(0); ts < 1000; ts++ {
		w.Observe(ts, []int64{ts})
	}
	checks := map[Agg]float64{
		Sum:   999 * 1000 / 2,
		Count: 1000,
		Avg:   499.5,
		Min:   0,
		Max:   999,
	}
	for agg, want := range checks {
		groups, err := w.Aggregate(0, 999, "v", agg)
		if err != nil {
			t.Fatal(err)
		}
		if len(groups) != 1 {
			t.Fatalf("agg %d: %d groups", agg, len(groups))
		}
		if math.Abs(groups[0].Value.Value-want) > 1e-9 {
			t.Fatalf("agg %d = %v, want %v", agg, groups[0].Value.Value, want)
		}
	}
	if _, err := w.Aggregate(0, 999, "v", Agg(99)); err == nil {
		t.Fatal("unknown agg must error")
	}
	if _, err := w.Aggregate(0, 999, "missing", Sum); err == nil {
		t.Fatal("unknown column must error")
	}
}

func TestWindowedValidation(t *testing.T) {
	if _, err := NewWindowed(WindowConfig{Columns: []string{"v"}, K: 0, SlideWidth: 10}); err == nil {
		t.Fatal("K=0 must error")
	}
	if _, err := NewWindowed(WindowConfig{Columns: []string{"v"}, K: 10, SlideWidth: 0}); err == nil {
		t.Fatal("SlideWidth=0 must error")
	}
}

// TestWindowedLateEventOlderThanFullWindow: an out-of-order event older than
// every slide of a window already at MaxSlides is counted as dropped, and
// windows reaching back to it are refused.
func TestWindowedLateEventOlderThanFullWindow(t *testing.T) {
	w, err := NewWindowed(WindowConfig{
		Columns:    []string{"v"},
		K:          8,
		SlideWidth: 10,
		MaxSlides:  2,
		Seed:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range []int64{10, 20, 0} {
		if err := w.Observe(ts, []int64{ts}); err != nil {
			t.Fatal(err)
		}
	}
	if w.Observed() != 2 || w.DroppedLate() != 1 {
		t.Fatalf("observed=%d dropped=%d, want 2 and 1", w.Observed(), w.DroppedLate())
	}
	if _, err := w.Aggregate(0, 29, "v", Sum); err == nil {
		t.Fatal("a window reaching the dropped event must error")
	}
	groups, err := w.Aggregate(10, 29, "v", Sum)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 || groups[0].Value.Value != 30 {
		t.Fatalf("groups = %+v, want one sum of 30", groups)
	}
}

func TestWindowedSamplingAccuracy(t *testing.T) {
	// Under genuine sampling pressure the estimate must track the truth.
	w, err := NewWindowed(WindowConfig{
		Columns:    []string{"g", "v"},
		GroupBy:    1,
		K:          300,
		SlideWidth: 50_000,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	const n = 500_000
	for ts := int64(0); ts < n; ts++ {
		v := (ts * 7) % 1000
		w.Observe(ts, []int64{ts % 3, v})
		if ts%3 == 1 && ts >= 100_000 && ts <= 399_999 {
			want += float64(v)
		}
	}
	groups, err := w.Aggregate(100_000, 399_999, "v", Sum)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		if g.Key[0] != 1 {
			continue
		}
		if math.Abs(g.Value.Value-want)/want > 0.10 {
			t.Fatalf("estimate %v vs true %v", g.Value.Value, want)
		}
		if g.Value.StdErr <= 0 {
			t.Fatal("sampled estimate must carry uncertainty")
		}
	}
}
