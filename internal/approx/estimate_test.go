package approx

import (
	"math"
	"slices"
	"testing"

	"laqy/internal/algebra"
	"laqy/internal/expr"
	"laqy/internal/rng"
	"laqy/internal/sample"
)

func newGen(seed uint64) *rng.Lehmer64 { return rng.NewLehmer64(seed) }

// iota64 returns lo, lo+1, …, hi-1.
func iota64(lo, hi int64) []int64 {
	vals := make([]int64, 0, hi-lo)
	for v := lo; v < hi; v++ {
		vals = append(vals, v)
	}
	return vals
}

// reservoirOf admits vals, in order, through the engine's admission path: a
// keyless stratified sample, whose one stratum is the returned reservoir.
func reservoirOf(k int, seed uint64, vals []int64) *sample.Reservoir {
	s := sample.NewBuilder(sample.Schema{"v"}, 0, k, newGen(seed))
	s.ConsiderColumns([][]int64{vals}, len(vals))
	return s.Stratum(sample.StratumKey{})
}

func TestZQuantile(t *testing.T) {
	// Known standard normal quantiles.
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.995, 2.575829},
		{0.025, -1.959964},
		{0.84134, 0.999998}, // Φ(1) ≈ 0.84134
	}
	for _, c := range cases {
		if got := zQuantile(c.p); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("zQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestZQuantilePanicsOutOfRange(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("zQuantile(%v) should panic", p)
				}
			}()
			zQuantile(p)
		}()
	}
}

func TestExactReservoirEstimates(t *testing.T) {
	// A not-full reservoir holds its whole subpopulation: estimates are
	// exact with zero standard error (fpc = 0).
	r := reservoirOf(1000, 1, iota64(0, 100))
	exactSum := float64(99 * 100 / 2)
	sum := FromReservoir(r, 0, Sum)
	if sum.Value != exactSum || sum.StdErr != 0 {
		t.Fatalf("Sum = %+v, want exact %v with zero stderr", sum, exactSum)
	}
	cnt := FromReservoir(r, 0, Count)
	if cnt.Value != 100 || cnt.StdErr != 0 {
		t.Fatalf("Count = %+v", cnt)
	}
	avg := FromReservoir(r, 0, Avg)
	if math.Abs(avg.Value-49.5) > 1e-9 {
		t.Fatalf("Avg = %+v", avg)
	}
	if mn := FromReservoir(r, 0, Min); mn.Value != 0 {
		t.Fatalf("Min = %+v", mn)
	}
	if mx := FromReservoir(r, 0, Max); mx.Value != 99 {
		t.Fatalf("Max = %+v", mx)
	}
}

func TestEmptyReservoirEstimate(t *testing.T) {
	r := sample.NewReservoir(10, 1, newGen(2))
	e := FromReservoir(r, 0, Sum)
	if e.Value != 0 || e.Support != 0 || e.StdErr != 0 {
		t.Fatalf("empty estimate = %+v", e)
	}
}

func TestSumEstimateUnbiased(t *testing.T) {
	// Average of SUM estimates over many independent samples should be
	// close to the true sum.
	const n, k, trials = 50000, 500, 60
	trueSum := float64(n) * float64(n-1) / 2
	acc := 0.0
	vals := iota64(0, n)
	for trial := 0; trial < trials; trial++ {
		acc += FromReservoir(reservoirOf(k, uint64(trial+10), vals), 0, Sum).Value
	}
	got := acc / trials
	if RelativeError(got, trueSum) > 0.01 {
		t.Fatalf("mean SUM estimate %.0f vs true %.0f (rel err %.3f)", got, trueSum, RelativeError(got, trueSum))
	}
}

func TestConfidenceIntervalCoverage(t *testing.T) {
	// A 95% CI should contain the true value in roughly 95% of trials.
	const n, k, trials = 20000, 400, 200
	trueSum := float64(n) * float64(n-1) / 2
	hits := 0
	vals := iota64(0, n)
	for trial := 0; trial < trials; trial++ {
		lo, hi, err := FromReservoir(reservoirOf(k, uint64(trial+999), vals), 0, Sum).ConfidenceInterval(0.95)
		if err != nil {
			t.Fatal(err)
		}
		if lo <= trueSum && trueSum <= hi {
			hits++
		}
	}
	rate := float64(hits) / trials
	if rate < 0.88 || rate > 1.0 {
		t.Fatalf("95%% CI covered the truth in %.1f%% of trials", rate*100)
	}
}

func TestConfidenceIntervalValidation(t *testing.T) {
	for _, bad := range []float64{-0.5, 0, 1, 1.5} {
		if _, _, err := (Estimate{Value: 1, StdErr: 1}).ConfidenceInterval(bad); err == nil {
			t.Fatalf("confidence %v should error", bad)
		}
		if _, err := (Estimate{Value: 1, StdErr: 1}).RelativeErrorBound(bad); err == nil {
			t.Fatalf("confidence %v should error", bad)
		}
	}
}

func TestRelativeErrorBound(t *testing.T) {
	e := Estimate{Value: 100, StdErr: 5}
	b, err := e.RelativeErrorBound(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b-5*1.959964/100) > 1e-4 {
		t.Fatalf("bound = %v", b)
	}
	if b, _ := (Estimate{Value: 0, StdErr: 1}).RelativeErrorBound(0.95); b != math.Inf(1) {
		t.Fatal("zero value with error should be +Inf bound")
	}
	if b, _ := (Estimate{Value: 0, StdErr: 0}).RelativeErrorBound(0.95); b != 0 {
		t.Fatal("exact estimate bound should be 0")
	}
}

func TestSupportFailures(t *testing.T) {
	// Group 0 has many tuples; group 1 has only 3.
	b := sample.NewBuilder(sample.Schema{"g", "v"}, 1, 100, newGen(4))
	keys := append(make([]int64, 1000), 1, 1, 1)
	vals := append(iota64(0, 1000), 0, 1, 2)
	b.ConsiderColumns([][]int64{keys, vals}, len(keys))
	s := sample.Seal(b, 1)
	fails := SupportFailures(s, nil, MinSupport)
	if len(fails) != 1 || fails[0][0] != 1 {
		t.Fatalf("SupportFailures = %v", fails)
	}
	if got := SupportFailures(s, nil, 1); len(got) != 0 {
		t.Fatalf("minSupport=1 should pass everywhere, got %v", got)
	}
}

func TestRelativeError(t *testing.T) {
	if RelativeError(110, 100) != 0.1 {
		t.Fatal("rel err of 110 vs 100 should be 0.1")
	}
	if RelativeError(0, 0) != 0 {
		t.Fatal("0 vs 0 should be 0")
	}
	if !math.IsInf(RelativeError(5, 0), 1) {
		t.Fatal("nonzero vs zero should be +Inf")
	}
}

func TestAggKindString(t *testing.T) {
	for k, want := range map[AggKind]string{Sum: "SUM", Count: "COUNT", Avg: "AVG", Min: "MIN", Max: "MAX"} {
		if k.String() != want {
			t.Fatalf("%v", k)
		}
	}
}

func TestEstimateAfterMergeMatchesTruth(t *testing.T) {
	// End-to-end soundness of the paper's pipeline: estimate from a merged
	// (delta + offline) sample tracks the exact answer over the union.
	const k = 800
	offline := reservoirOf(k, 50, iota64(0, 30000))
	delta := reservoirOf(k, 51, iota64(30000, 50000))
	trueSum := float64(49999 * 50000 / 2)
	merged := sample.Merge(offline, delta, newGen(52))
	e := FromReservoir(merged, 0, Sum)
	if RelativeError(e.Value, trueSum) > 0.10 {
		t.Fatalf("merged estimate %.0f vs true %.0f", e.Value, trueSum)
	}
}

// TestViewMatchesFilter is the contract that lets a reuse hit answer through
// (stored sample, compiled tuple filter) instead of a tightened copy: over
// random stratified samples and random one- and many-interval predicates, every
// aggregate kind estimated through a Selection equals, bit for bit, the
// estimate over sample.Stratified.Filter's materialized copy — Value, StdErr,
// Support and Weight, and the set and order of strata that keep any tuple —
// including strata that empty out and strata left with a single survivor.
func TestViewMatchesFilter(t *testing.T) {
	g := newGen(20240917)
	kinds := []AggKind{Sum, Count, Avg, Min, Max}
	sawEmpty, sawSingle, sawAll := false, false, false
	for trial := 0; trial < 200; trial++ {
		k := 1 + g.Intn(24)
		strata := 1 + g.Intn(12)
		domain := int64(8 + g.Intn(400))
		b := sample.NewBuilder(sample.Schema{"g", "key", "val"}, 1, k, g.Split(uint64(trial)))
		cols := make([][]int64, 3)
		for n := g.Intn(40 * strata); n >= 0; n-- {
			// Skewed groups: stratum 0 overflows k, others hold a tuple or two.
			grp := int64(g.Intn(strata)) * int64(g.Intn(2))
			cols[0] = append(cols[0], grp)
			cols[1] = append(cols[1], int64(g.Uint64n(uint64(domain))))
			cols[2] = append(cols[2], int64(g.Uint64n(1<<40))-1<<39)
		}
		b.ConsiderColumns(cols, len(cols[0]))
		s := sample.Seal(b, 1)
		// A union of 1..4 random intervals over the key domain.
		ivs := make([]algebra.Interval, 1+g.Intn(4))
		for i := range ivs {
			lo := int64(g.Uint64n(uint64(domain)))
			ivs[i] = algebra.Interval{Lo: lo, Hi: lo + int64(g.Uint64n(uint64(domain)/uint64(1+g.Intn(6))+1))}
		}
		keySet := algebra.NewSet(ivs...)
		if trial%10 == 0 {
			keySet = algebra.SetOf(algebra.Interval{Lo: math.MinInt64, Hi: math.MaxInt64}) // w·n/n, not w
		}
		keep, err := expr.CompileTuples(algebra.NewPredicate().With("key", keySet), s.Schema())
		if err != nil {
			t.Fatal(err)
		}

		copyOf := s.Filter(keep)
		var viewKeys []sample.StratumKey
		var sel Selection
		s.ForEach(func(key sample.StratumKey, r *sample.Reservoir) {
			if !sel.Select(r, keep) {
				sawEmpty = true
				if copyOf.Stratum(key) != nil {
					t.Fatalf("trial %d: view drops stratum %v, the copy keeps it", trial, key)
				}
				return
			}
			viewKeys = append(viewKeys, key)
			f := copyOf.Stratum(key)
			if f == nil {
				t.Fatalf("trial %d: view keeps stratum %v, the copy drops it", trial, key)
			}
			sawSingle = sawSingle || sel.n == 1
			sawAll = sawAll || sel.n == r.Len()
			for _, kind := range kinds {
				for col := 1; col <= 2; col++ {
					got, want := sel.Estimate(col, kind), FromReservoir(f, col, kind)
					if math.Float64bits(got.Value) != math.Float64bits(want.Value) ||
						math.Float64bits(got.StdErr) != math.Float64bits(want.StdErr) ||
						math.Float64bits(got.Weight) != math.Float64bits(want.Weight) ||
						got.Support != want.Support {
						t.Fatalf("trial %d stratum %v %v(col %d): view %+v, copy %+v", trial, key, kind, col, got, want)
					}
				}
			}
		})
		if want := sample.Seal(copyOf, 1).Keys(); !slices.Equal(viewKeys, want) {
			t.Fatalf("trial %d: view emits strata %v, copy holds %v", trial, viewKeys, want)
		}
		// The support check reads counts through the same view.
		for _, minSupport := range []int{1, 3} {
			var want []sample.StratumKey
			for _, key := range s.Keys() {
				if f := copyOf.Stratum(key); f == nil || f.Len() < minSupport {
					want = append(want, key)
				}
			}
			if got := SupportFailures(s, keep, minSupport); !slices.Equal(got, want) {
				t.Fatalf("trial %d: SupportFailures(%d) = %v, want %v", trial, minSupport, got, want)
			}
		}
	}
	if !sawEmpty || !sawSingle || !sawAll {
		t.Fatalf("generator missed a case: empty %v, single survivor %v, all survive %v", sawEmpty, sawSingle, sawAll)
	}
}
