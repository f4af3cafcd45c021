package laqy

import (
	"math"
	"testing"

	"laqy/internal/rng"
	"laqy/internal/sample"
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

// TestWindowedMatchesExactWindows holds window answers to the events'
// ground truth over seeds and three arrival orders — in order, shuffled
// within the retention horizon, and in order with late events older than
// the horizon mixed in:
//   - every slide-aligned window's total weight, and each group's, equals
//     the exact number of accepted events in it, bitwise;
//   - DroppedLate counts exactly the events that arrived older than the
//     horizon;
//   - an unaligned window's per-group SUM, whose boundary slides are
//     tightened on time, is within 4 standard errors of the exact sum in
//     at least 90% of the runs.
func TestWindowedMatchesExactWindows(t *testing.T) {
	const (
		width, maxSlides, groups = 100, 8, 3
		n                        = 30 * width
		horizon                  = (maxSlides - 1) * width // how far behind the newest slide's start events are kept
	)
	type event struct{ ts, g, v int64 }
	runs, covered := 0, 0
	for seed := uint64(1); seed <= 30; seed++ {
		for _, order := range []string{"in order", "shuffled within horizon", "late beyond horizon"} {
			gen := rng.NewLehmer64(seed)
			events := make([]event, n)
			for i := range events {
				events[i] = event{int64(i), int64(gen.Intn(groups)), int64(gen.Intn(1000))}
			}
			lateEvery := 0
			switch order {
			case "shuffled within horizon":
				// Blocks of 4 slides: no event trails the newest by more than
				// the horizon, so none is dropped.
				for b := 0; b < n; b += 4 * width {
					blk := events[b:min(b+4*width, n)]
					gen.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
				}
			case "late beyond horizon":
				// Every 75th event is followed by one up to 12 slides late:
				// within the horizon it is accepted out of order, beyond it
				// dropped.
				lateEvery = 75
			}
			w, err := NewWindowed(WindowConfig{Columns: []string{"g", "v"}, GroupBy: 1, K: 16,
				SlideWidth: width, MaxSlides: maxSlides, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			var accepted []event
			var maxTS, dropped int64 = -1, 0
			observe := func(e event) {
				if err := w.Observe(e.ts, []int64{e.g, e.v}); err != nil {
					t.Fatal(err)
				}
				if maxTS >= horizon && e.ts < maxTS/width*width-horizon {
					dropped++
					return
				}
				accepted = append(accepted, e)
				maxTS = max(maxTS, e.ts)
			}
			for i, e := range events {
				observe(e)
				if lateEvery > 0 && i%lateEvery == lateEvery-1 {
					observe(event{max(maxTS-1-int64(gen.Intn(12*width)), 0), int64(gen.Intn(groups)), int64(gen.Intn(1000))})
				}
			}
			if w.DroppedLate() != dropped || w.Observed() != int64(len(accepted)) {
				t.Fatalf("seed %d %s: dropped %d observed %d, want %d and %d",
					seed, order, w.DroppedLate(), w.Observed(), dropped, len(accepted))
			}
			if order == "late beyond horizon" && dropped == 0 {
				t.Fatalf("seed %d: no late event fell beyond the horizon", seed)
			}
			exact := func(from, to int64) (count [groups]int64, sum [groups]float64) {
				for _, e := range accepted {
					if e.ts >= from && e.ts <= to {
						count[e.g]++
						sum[e.g] += float64(e.v)
					}
				}
				return count, sum
			}
			oldest := maxTS/width*width - horizon
			for from := oldest; from <= maxTS; from += width {
				for to := from + width - 1; to <= maxTS/width*width+width-1; to += width {
					win, err := w.inner.Window(from, to)
					if err != nil {
						t.Fatal(err)
					}
					count, _ := exact(from, to)
					if want := float64(count[0] + count[1] + count[2]); win.TotalWeight() != want {
						t.Fatalf("seed %d %s: window [%d, %d] weight %v, want %v", seed, order, from, to, win.TotalWeight(), want)
					}
					win.ForEach(func(key sample.StratumKey, r *sample.Reservoir) {
						if r.Weight() != float64(count[key[0]]) {
							t.Fatalf("seed %d %s: window [%d, %d] group %d weight %v, want %d",
								seed, order, from, to, key[0], r.Weight(), count[key[0]])
						}
					})
				}
			}
			from, to := oldest+37, maxTS-61
			got, err := w.Aggregate(from, to, "v", Sum)
			if err != nil {
				t.Fatal(err)
			}
			_, sum := exact(from, to)
			ok := len(got) == groups
			for _, g := range got {
				ok = ok && math.Abs(g.Value.Value-sum[g.Key[0]]) <= 4*g.Value.StdErr
			}
			runs++
			if ok {
				covered++
			}
		}
	}
	t.Logf("unaligned SUM within 4 standard errors in %d of %d runs", covered, runs)
	if covered*10 < runs*9 {
		t.Fatalf("unaligned SUM within 4 standard errors in %d of %d runs, want ≥ 90%%", covered, runs)
	}
}
