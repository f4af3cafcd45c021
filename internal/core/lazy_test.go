package core

import (
	"math"
	"reflect"
	"testing"

	"laqy/internal/algebra"
	"laqy/internal/approx"
	"laqy/internal/engine"
	"laqy/internal/sample"
	"laqy/internal/storage"
	"laqy/internal/store"
)

// testFact builds a fact table with f_key 0..n-1 (shuffled semantics are
// irrelevant here), f_group = key % groups, f_val = key.
func testFact(n, groups int) *storage.Table {
	key := make([]int64, n)
	grp := make([]int64, n)
	val := make([]int64, n)
	for i := 0; i < n; i++ {
		key[i] = int64(i)
		grp[i] = int64(i % groups)
		val[i] = int64(i)
	}
	return storage.MustNewTable("fact",
		&storage.Column{Name: "f_key", Kind: storage.KindInt64, Ints: key},
		&storage.Column{Name: "f_group", Kind: storage.KindInt64, Ints: grp},
		&storage.Column{Name: "f_val", Kind: storage.KindInt64, Ints: val},
	)
}

const (
	factRows = 50000
	groups   = 5
	resK     = 200
)

func request(fact *storage.Table, lo, hi int64) Request {
	pred := algebra.NewPredicate().WithRange("f_key", lo, hi)
	return Request{
		Query:     &engine.Query{Fact: fact, Filter: pred},
		Predicate: pred,
		Schema:    sample.Schema{"f_group", "f_key", "f_val"},
		QCSWidth:  1,
		K:         resK,
		Seed:      42,
		Workers:   2,
	}
}

func TestFirstQueryIsOnline(t *testing.T) {
	fact := testFact(factRows, groups)
	l := New(store.New(0), 1)
	res, err := l.Sample(request(fact, 0, 9999))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeOnline {
		t.Fatalf("mode = %v, want online", res.Mode)
	}
	if res.Sample.TotalWeight() != 10000 {
		t.Fatalf("weight = %v, want 10000", res.Sample.TotalWeight())
	}
	if res.Stats.RowsScanned != factRows {
		t.Fatalf("scanned = %d", res.Stats.RowsScanned)
	}
	if l.Store().Len() != 1 {
		t.Fatal("online sample must be stored for future reuse")
	}
}

func TestRepeatQueryIsOffline(t *testing.T) {
	fact := testFact(factRows, groups)
	l := New(store.New(0), 1)
	if _, err := l.Sample(request(fact, 0, 9999)); err != nil {
		t.Fatal(err)
	}
	res, err := l.Sample(request(fact, 0, 9999))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeOffline {
		t.Fatalf("mode = %v, want offline", res.Mode)
	}
	if res.Stats.RowsScanned != 0 {
		t.Fatal("full reuse must not scan any data")
	}
	if res.Sample.TotalWeight() != 10000 {
		t.Fatalf("weight = %v", res.Sample.TotalWeight())
	}
}

func TestExpandedRangeIsPartial(t *testing.T) {
	fact := testFact(factRows, groups)
	l := New(store.New(0), 1)
	if _, err := l.Sample(request(fact, 0, 9999)); err != nil {
		t.Fatal(err)
	}
	res, err := l.Sample(request(fact, 0, 19999))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModePartial {
		t.Fatalf("mode = %v, want partial", res.Mode)
	}
	wantMissing := algebra.SetOf(algebra.Interval{Lo: 10000, Hi: 19999})
	if !res.Missing.Equal(wantMissing) {
		t.Fatalf("missing = %v", res.Missing)
	}
	if res.DeltaColumn != "f_key" {
		t.Fatalf("delta column = %q", res.DeltaColumn)
	}
	// The delta execution only selects the missing rows.
	if res.Stats.RowsSelected != 10000 {
		t.Fatalf("delta selected %d rows, want 10000", res.Stats.RowsSelected)
	}
	// The merged logical sample represents the union.
	if res.Sample.TotalWeight() != 20000 {
		t.Fatalf("merged weight = %v, want 20000", res.Sample.TotalWeight())
	}
	// The store entry was expanded: a subsuming query now fully reuses.
	res2, err := l.Sample(request(fact, 5000, 15000))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Mode != ModeOffline {
		t.Fatalf("follow-up mode = %v, want offline", res2.Mode)
	}
	if l.Store().Len() != 1 {
		t.Fatalf("store has %d entries, want 1 (expanded in place)", l.Store().Len())
	}
}

// answer materializes the logical sample a result stands for — the tuples of
// res.Sample its Keep predicate accepts, at the rescaled weights — so a test
// can inspect what the estimators read through the view.
func answer(res *Result) *sample.Stratified {
	if res.Keep == nil {
		return res.Sample
	}
	return res.Sample.Filter(res.Keep)
}

func TestNarrowedRangeTightens(t *testing.T) {
	fact := testFact(factRows, groups)
	l := New(store.New(0), 1)
	if _, err := l.Sample(request(fact, 0, 19999)); err != nil {
		t.Fatal(err)
	}
	res, err := l.Sample(request(fact, 5000, 6000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeOffline {
		t.Fatalf("mode = %v", res.Mode)
	}
	// The hit copies nothing: it is the stored sample behind a predicate.
	if res.Keep == nil || res.Sample != l.Store().List()[0].Sample {
		t.Fatalf("tightened hit should be a view over the stored sample (keep set: %v)", res.Keep != nil)
	}
	// Tightened weight should estimate the 1001 qualifying rows.
	tight := answer(res)
	if math.Abs(tight.TotalWeight()-1001) > 600 {
		t.Fatalf("tightened weight = %v, want ≈1001", tight.TotalWeight())
	}
	// Every surviving tuple satisfies the narrow predicate.
	tight.ForEach(func(_ sample.StratumKey, r *sample.Reservoir) {
		for i := 0; i < r.Len(); i++ {
			k := r.Tuple(i)[1]
			if k < 5000 || k > 6000 {
				t.Fatalf("tuple with key %d survived tightening to [5000,6000]", k)
			}
		}
	})

	// One tightening, three ways in. The table ends at key factRows-1, so
	// with [40000,49999] stored, a query for [45000,60000] misses a range
	// that holds no rows: its stale serve, the offline serve of
	// [45000,49999] and its partial serve (empty Δ, merge is the identity)
	// all narrow the same stored sample by the same conjunct and must
	// return the same tuples at the same weights. Stale and offline go
	// first: the partial serve widens the stored entry.
	l = New(store.New(0), 1)
	if _, err := l.Sample(request(fact, 40000, factRows-1)); err != nil {
		t.Fatal(err)
	}
	stale := request(fact, 45000, 60000)
	stale.ServeStored = true
	var want *sample.Stratified
	for _, c := range []struct {
		name string
		req  Request
		mode Mode
	}{
		{"stale", stale, ModeOffline},
		{"offline", request(fact, 45000, factRows-1), ModeOffline},
		{"partial", request(fact, 45000, 60000), ModePartial},
	} {
		res, err := l.Sample(c.req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Mode != c.mode || res.Stale != (c.name == "stale") {
			t.Fatalf("%s: mode=%v stale=%v", c.name, res.Mode, res.Stale)
		}
		got := answer(res)
		if want == nil {
			want = got
			if want.NumStrata() != groups || want.TotalWeight() <= 0 {
				t.Fatalf("tightened sample: %d strata, weight %v", want.NumStrata(), want.TotalWeight())
			}
			continue
		}
		if got.NumStrata() != want.NumStrata() {
			t.Fatalf("%s: %d strata, stale serve had %d", c.name, got.NumStrata(), want.NumStrata())
		}
		want.ForEach(func(key sample.StratumKey, w *sample.Reservoir) {
			g := got.Stratum(key)
			if g == nil || g.Weight() != w.Weight() || g.Len() != w.Len() {
				t.Fatalf("%s: stratum %v differs from the stale serve's", c.name, key)
			}
			for i := 0; i < w.Len(); i++ {
				if !reflect.DeepEqual(g.Tuple(i), w.Tuple(i)) {
					t.Fatalf("%s: stratum %v tuple %d = %v, stale serve had %v", c.name, key, i, g.Tuple(i), w.Tuple(i))
				}
			}
		})
	}
}

func TestDisjointRangeIsOnline(t *testing.T) {
	fact := testFact(factRows, groups)
	l := New(store.New(0), 1)
	if _, err := l.Sample(request(fact, 0, 999)); err != nil {
		t.Fatal(err)
	}
	res, err := l.Sample(request(fact, 30000, 39999))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeOnline {
		t.Fatalf("mode = %v, want online for disjoint ranges", res.Mode)
	}
	if l.Store().Len() != 2 {
		t.Fatalf("store has %d entries, want 2", l.Store().Len())
	}
}

func TestCombinedTightenAndRelax(t *testing.T) {
	// §5.2.3: sample [0,9999], query [5000,14999]: Δ-sample [10000,14999],
	// tighten the reused part to [5000,9999].
	fact := testFact(factRows, groups)
	l := New(store.New(0), 1)
	if _, err := l.Sample(request(fact, 0, 9999)); err != nil {
		t.Fatal(err)
	}
	res, err := l.Sample(request(fact, 5000, 14999))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModePartial {
		t.Fatalf("mode = %v", res.Mode)
	}
	if !res.Missing.Equal(algebra.SetOf(algebra.Interval{Lo: 10000, Hi: 14999})) {
		t.Fatalf("missing = %v", res.Missing)
	}
	// Answer weight ≈ 10000 qualifying rows (5000 exact from delta, ~5000
	// estimated from tightening).
	tight := answer(res)
	if math.Abs(tight.TotalWeight()-10000) > 2500 {
		t.Fatalf("answer weight = %v, want ≈10000", tight.TotalWeight())
	}
	// All tuples in range.
	tight.ForEach(func(_ sample.StratumKey, r *sample.Reservoir) {
		for i := 0; i < r.Len(); i++ {
			k := r.Tuple(i)[1]
			if k < 5000 || k > 14999 {
				t.Fatalf("tuple key %d outside [5000,14999]", k)
			}
		}
	})
	// The stored sample now covers [0,14999].
	res2, err := l.Sample(request(fact, 0, 14999))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Mode != ModeOffline {
		t.Fatalf("follow-up mode = %v, want offline", res2.Mode)
	}
}

func TestEstimatesFromLazySamplesMatchExact(t *testing.T) {
	fact := testFact(factRows, groups)
	l := New(store.New(0), 1)
	// Build [0,9999], then expand to [0,24999] lazily.
	if _, err := l.Sample(request(fact, 0, 9999)); err != nil {
		t.Fatal(err)
	}
	res, err := l.Sample(request(fact, 0, 24999))
	if err != nil {
		t.Fatal(err)
	}
	exact, _, err := engine.RunExact(
		&engine.Query{Fact: fact, Filter: algebra.NewPredicate().WithRange("f_key", 0, 24999)},
		[]string{"f_group"}, []engine.Agg{{Expr: engine.Col("f_val"), Kind: approx.Sum}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ests := approx.GroupEstimates(res.Sample, 2, approx.Sum)
	if len(ests) != groups {
		t.Fatalf("%d group estimates", len(ests))
	}
	for key, e := range ests {
		want, ok := exact.Value(key, 0)
		if !ok {
			t.Fatalf("group %v missing from exact", key)
		}
		if approx.RelativeError(e.Value, want) > 0.15 {
			t.Fatalf("group %v: estimate %.0f vs exact %.0f", key, e.Value, want)
		}
	}
}

func TestSupportRepair(t *testing.T) {
	// Tightening to a very narrow range collapses per-stratum support; the
	// refined §5.2.3 policy re-samples the failing strata with the stratum
	// keys pushed down instead of abandoning reuse. The repaired strata
	// hold the exact qualifying rows (the range is tiny), validating that
	// the low support reflects the true data distribution.
	fact := testFact(factRows, groups)
	l := New(store.New(0), 1)
	if _, err := l.Sample(request(fact, 0, 19999)); err != nil {
		t.Fatal(err)
	}
	req := request(fact, 100, 120)
	req.MinSupport = 30
	res, err := l.Sample(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.SupportFallback {
		t.Fatal("single-column QCS should repair, not fall back")
	}
	if res.Mode != ModeOffline {
		t.Fatalf("mode = %v, want offline (repaired reuse)", res.Mode)
	}
	// The repair scanned the data once (for the failing strata).
	if res.Stats.RowsScanned == 0 {
		t.Fatal("repair should have scanned for the failing strata")
	}
	// Repaired strata hold exactly the 21 qualifying rows: the one case an
	// answer is still materialized, since those tuples are not in the store.
	if res.Keep != nil {
		t.Fatal("a repaired answer should carry its own tuples, not a view")
	}
	if res.Sample.TotalWeight() != 21 {
		t.Fatalf("repaired weight = %v, want exact 21", res.Sample.TotalWeight())
	}
	res.Sample.ForEach(func(_ sample.StratumKey, r *sample.Reservoir) {
		for i := 0; i < r.Len(); i++ {
			if k := r.Tuple(i)[1]; k < 100 || k > 120 {
				t.Fatalf("repaired stratum holds out-of-range key %d", k)
			}
		}
	})
}

func TestSupportFallbackWhenUnrepairable(t *testing.T) {
	// A multi-column QCS cannot express the failing-strata predicate, so
	// the conservative full online fallback still applies.
	fact := testFact(factRows, groups)
	l := New(store.New(0), 1)
	mkReq := func(lo, hi int64) Request {
		pred := algebra.NewPredicate().WithRange("f_key", lo, hi)
		return Request{
			Query:     &engine.Query{Fact: fact, Filter: pred},
			Predicate: pred,
			Schema:    sample.Schema{"f_group", "f_val", "f_key"},
			QCSWidth:  2, // stratify on (f_group, f_val): unrepairable shape
			K:         50,
			Seed:      42,
			Workers:   2,
		}
	}
	if _, err := l.Sample(mkReq(0, 19999)); err != nil {
		t.Fatal(err)
	}
	req := mkReq(100, 120)
	req.MinSupport = 30
	res, err := l.Sample(req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SupportFallback {
		t.Fatal("expected a support fallback for a 2-column QCS")
	}
	if res.Mode != ModeOnline {
		t.Fatalf("fallback mode = %v, want online", res.Mode)
	}
}

func TestDeltaOnDimensionColumn(t *testing.T) {
	// Sample built for region code 1; query asks regions {1,2}: the delta
	// pushes region ∈ {2} into the join filter.
	fact := testFact(20000, 4)
	dimN := 8
	dkey := make([]int64, dimN)
	dreg := make([]int64, dimN)
	for i := 0; i < dimN; i++ {
		dkey[i] = int64(i)
		dreg[i] = int64(i % 4)
	}
	dim := storage.MustNewTable("dim",
		&storage.Column{Name: "d_key", Kind: storage.KindInt64, Ints: dkey},
		&storage.Column{Name: "d_reg", Kind: storage.KindInt64, Ints: dreg},
	)
	// Fact joins dim via f_val % 8 — reuse f_group as key space is too
	// small; add a fk column instead.
	fk := make([]int64, 20000)
	for i := range fk {
		fk[i] = int64(i % dimN)
	}
	factJ := storage.MustNewTable("factj",
		append([]*storage.Column{}, &storage.Column{Name: "f_key", Kind: storage.KindInt64, Ints: fact.Column("f_key").Ints},
			&storage.Column{Name: "f_group", Kind: storage.KindInt64, Ints: fact.Column("f_group").Ints},
			&storage.Column{Name: "f_val", Kind: storage.KindInt64, Ints: fact.Column("f_val").Ints},
			&storage.Column{Name: "f_fk", Kind: storage.KindInt64, Ints: fk})...)

	mkReq := func(regions algebra.Set) Request {
		pred := algebra.NewPredicate().With("d_reg", regions).WithRange("f_key", 0, 19999)
		return Request{
			Query: &engine.Query{
				Fact:   factJ,
				Filter: algebra.NewPredicate().WithRange("f_key", 0, 19999),
				Joins: []engine.Join{{
					Dim: dim, FactKey: "f_fk", DimKey: "d_key",
					Filter: algebra.NewPredicate().With("d_reg", regions),
				}},
			},
			Predicate: pred,
			Schema:    sample.Schema{"f_group", "f_key", "f_val", "d_reg"},
			QCSWidth:  1,
			K:         100,
			Seed:      5,
			Workers:   2,
		}
	}
	l := New(store.New(0), 1)
	r1, err := l.Sample(mkReq(algebra.SetOf(algebra.Point(1))))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Mode != ModeOnline {
		t.Fatalf("first mode = %v", r1.Mode)
	}
	r2, err := l.Sample(mkReq(algebra.NewSet(algebra.Point(1), algebra.Point(2))))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Mode != ModePartial {
		t.Fatalf("second mode = %v, want partial (delta on d_reg)", r2.Mode)
	}
	if r2.DeltaColumn != "d_reg" {
		t.Fatalf("delta column = %q", r2.DeltaColumn)
	}
	// Regions 1 and 2 each match 2 of 8 dim rows → half the fact rows.
	if r2.Sample.TotalWeight() != 10000 {
		t.Fatalf("merged weight = %v, want 10000", r2.Sample.TotalWeight())
	}
}

func TestValidation(t *testing.T) {
	l := New(store.New(0), 1)
	if _, err := l.Sample(Request{}); err == nil {
		t.Fatal("nil query must error")
	}
	fact := testFact(100, 2)
	bad := request(fact, 0, 10)
	bad.QCSWidth = -1
	if _, err := l.Sample(bad); err == nil {
		t.Fatal("negative QCS width must error")
	}
	bad = request(fact, 0, 10)
	bad.K = 0
	if _, err := l.Sample(bad); err == nil {
		t.Fatal("zero capacity must error")
	}
}

func TestInputSignature(t *testing.T) {
	fact := testFact(10, 2)
	q1 := &engine.Query{Fact: fact}
	q2 := &engine.Query{Fact: fact, Filter: algebra.NewPredicate().WithRange("f_key", 0, 5)}
	if InputSignature(q1) != InputSignature(q2) {
		t.Fatal("filters must not change the input signature")
	}
	dim := storage.MustNewTable("dim",
		&storage.Column{Name: "d_key", Kind: storage.KindInt64, Ints: []int64{0, 1}})
	q3 := &engine.Query{Fact: fact, Joins: []engine.Join{{Dim: dim, FactKey: "f_group", DimKey: "d_key"}}}
	if InputSignature(q1) == InputSignature(q3) {
		t.Fatal("joins must change the input signature")
	}
}

func TestModeNames(t *testing.T) {
	if ModeOnline.String() != "online" || ModePartial.String() != "partial" || ModeOffline.String() != "offline" {
		t.Fatal("Mode.String mismatch")
	}
}

func TestOversampleCapacity(t *testing.T) {
	fact := testFact(factRows, groups)
	l := New(store.New(0), 1)
	req := request(fact, 0, 29999)
	req.K = 100
	req.Oversample = 2
	res, err := l.Sample(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Sample.ForEach(func(_ sample.StratumKey, r *sample.Reservoir) {
		if r.K() != 200 {
			t.Fatalf("reservoir capacity = %d, want α·K = 200", r.K())
		}
	})
	// Oversampled reservoirs survive tightening that plain ones fail:
	// narrow to 3% of the built range with MinSupport high enough to
	// stress support.
	narrow := request(fact, 0, 899)
	narrow.MinSupport = 30
	res2, err := l.Sample(narrow)
	if err != nil {
		t.Fatal(err)
	}
	if res2.SupportFallback {
		// 900 rows / 5 strata = 180 qualifying rows per stratum; with
		// k=200 over 30000 rows, expected survivors per stratum ≈
		// 200·(900/30000) = 6 < 30 — fallback IS expected here. Rebuild
		// with a bigger alpha and verify survivors grow.
		req4 := request(fact, 0, 29999)
		req4.K = 100
		req4.Oversample = 40
		l2 := New(store.New(0), 2)
		if _, err := l2.Sample(req4); err != nil {
			t.Fatal(err)
		}
		n2, err := l2.Sample(narrow)
		if err != nil {
			t.Fatal(err)
		}
		if n2.SupportFallback {
			t.Fatal("α=40 should survive the support check where α=2 fell back")
		}
		return
	}
}

func TestOversampleDefaultOff(t *testing.T) {
	r := Request{K: 100}
	if r.effectiveK() != 100 {
		t.Fatalf("effectiveK = %d", r.effectiveK())
	}
	r.Oversample = 0.5
	if r.effectiveK() != 100 {
		t.Fatal("alpha < 1 must not shrink reservoirs")
	}
	r.Oversample = 1.5
	if r.effectiveK() != 150 {
		t.Fatalf("effectiveK = %d, want 150", r.effectiveK())
	}
}

func TestDisablePartialIsFullMatchOnly(t *testing.T) {
	// The Taster-style baseline: expanded ranges rebuild from scratch, but
	// exact/subsumed repeats still reuse.
	fact := testFact(factRows, groups)
	l := New(store.New(0), 1)
	first := request(fact, 0, 9999)
	first.DisablePartial = true
	if _, err := l.Sample(first); err != nil {
		t.Fatal(err)
	}
	expanded := request(fact, 0, 19999)
	expanded.DisablePartial = true
	res, err := l.Sample(expanded)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeOnline {
		t.Fatalf("expanded mode = %v, want online (partial reuse disabled)", res.Mode)
	}
	if res.Stats.RowsSelected != 20000 {
		t.Fatalf("full rebuild selected %d rows", res.Stats.RowsSelected)
	}
	// Subsumed repeat still reuses offline (that is what Taster does).
	repeat := request(fact, 5000, 15000)
	repeat.DisablePartial = true
	res2, err := l.Sample(repeat)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Mode != ModeOffline {
		t.Fatalf("subsumed mode = %v, want offline", res2.Mode)
	}
}
