package engine

//laqy:allow rngsource randomized equivalence inputs; determinism comes from fixed seeds, not laqy/internal/rng

import (
	"math/rand"
	"testing"

	"laqy/internal/algebra"
	"laqy/internal/approx"
	"laqy/internal/sample"
	"laqy/internal/storage"
)

// buildClusteredFact builds a sealed fact of one-morsel segments (the last
// one short, then the empty open segment) shaped for every zone-map outcome:
// e_date is sorted (zones tight and disjoint: a range skips some morsels and
// fills others), e_one is constant (min = max in every zone: a conjunct over
// it is decided whole, never per row), and three columns straddle every
// predicate in every zone — e_flag (a narrow shuffled domain), e_pair (runs
// of 2 cycling through 97 values) and e_wide (noise); e_val is the small
// aggregation payload.
func buildClusteredFact(t testing.TB, n int, seed int64) *storage.Table {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	date := make([]int64, n)
	flag := make([]int64, n)
	one := make([]int64, n)
	pair := make([]int64, n)
	wide := make([]int64, n)
	val := make([]int64, n)
	for i := 0; i < n; i++ {
		date[i] = 20070000 + int64(i*400/n) // sorted, ~400 runs
		flag[i] = rnd.Int63n(50)
		one[i] = 1
		pair[i] = int64(i / 2 % 97)
		wide[i] = int64(rnd.Uint64())
		val[i] = rnd.Int63n(1000)
	}
	tab := storage.MustNewTable("efact",
		&storage.Column{Name: "e_date", Kind: storage.KindInt64, Ints: date},
		&storage.Column{Name: "e_flag", Kind: storage.KindInt64, Ints: flag},
		&storage.Column{Name: "e_one", Kind: storage.KindInt64, Ints: one},
		&storage.Column{Name: "e_pair", Kind: storage.KindInt64, Ints: pair},
		&storage.Column{Name: "e_wide", Kind: storage.KindInt64, Ints: wide},
		&storage.Column{Name: "e_val", Kind: storage.KindInt64, Ints: val},
	)
	tab, err := storage.Resegment(tab, storage.DefaultMorselSize)
	if err != nil {
		t.Fatal(err)
	}
	tab, err = storage.Seal(tab)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// clusteredPredicates is the predicate zoo the equivalence tests sweep over
// the clustered fact: single-interval conjuncts the zone maps decide (skip,
// full, and the constant column either way), shuffled conjuncts beside them,
// two- and many-interval sets the zone maps leave alone, and the trivial
// filter.
func clusteredPredicates() []algebra.Predicate {
	return []algebra.Predicate{
		algebra.NewPredicate().WithRange("e_date", 20070100, 20070250),
		algebra.NewPredicate().WithRange("e_date", 20070010, 20070399), // wide: whole morsels qualify
		algebra.NewPredicate().WithRange("e_date", 20070100, 20070250).WithRange("e_flag", 5, 20),
		algebra.NewPredicate().WithRange("e_flag", 10, 15).WithRange("e_date", 20070000, 20070399),
		algebra.NewPredicate().WithRange("e_one", 1, 1).WithRange("e_flag", 0, 24),
		algebra.NewPredicate().WithRange("e_one", 2, 9), // const all-fail
		algebra.NewPredicate().WithRange("e_date", 20070050, 20070350).WithRange("e_wide", -1<<62, 1<<62),
		algebra.NewPredicate().With("e_flag", algebra.NewSet(
			algebra.Interval{Lo: 3, Hi: 7}, algebra.Interval{Lo: 30, Hi: 41})),
		algebra.NewPredicate().With("e_date", twoDateRanges()).WithRange("e_pair", 10, 60),
		algebra.NewPredicate().With("e_date", algebra.NewSet(
			algebra.Interval{Lo: 20070010, Hi: 20070020}, algebra.Interval{Lo: 20070100, Hi: 20070130},
			algebra.Interval{Lo: 20070200, Hi: 20070210}, algebra.Interval{Lo: 20070300, Hi: 20070399})),
		algebra.NewPredicate(), // trivial: nothing to classify
	}
}

// twoDateRanges is the Δ-range shape over the clustered date column: two
// intervals, so no zone map applies and every morsel runs the branchless
// two-interval test.
func twoDateRanges() algebra.Set {
	return algebra.NewSet(algebra.Interval{Lo: 20070050, Hi: 20070120}, algebra.Interval{Lo: 20070200, Hi: 20070290})
}

// TestZoneMapDeltaBounds sweeps the predicate zoo over scan ranges that
// start at row 0 and mid-segment (the Δ-maintenance shape: every morsel
// then straddles a segment boundary and folds two segments' maps) and pins
// sums and selected-row counts to the DisableZoneMaps reference.
func TestZoneMapDeltaBounds(t *testing.T) {
	fact := buildClusteredFact(t, 2*storage.DefaultMorselSize+999, 2)
	var pruned, full int64
	for pi, p := range clusteredPredicates() {
		for _, from := range []int{0, 1, storage.DefaultMorselSize / 2, storage.DefaultMorselSize + 7} {
			zm := &Query{Fact: fact, Filter: p, ScanFrom: from}
			ref := &Query{Fact: fact, Filter: p, ScanFrom: from, DisableZoneMaps: true}
			got, gotStats, err := RunScan(zm, "e_val", 1)
			if err != nil {
				t.Fatal(err)
			}
			want, refStats, err := RunScan(ref, "e_val", 1)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || gotStats.RowsSelected != refStats.RowsSelected {
				t.Fatalf("pred %d ScanFrom %d: sum %v of %d rows, reference %v of %d",
					pi, from, got, gotStats.RowsSelected, want, refStats.RowsSelected)
			}
			if refStats.MorselsPruned != 0 || refStats.MorselsFull != 0 {
				t.Fatalf("pred %d: reference run took a verdict: %+v", pi, refStats)
			}
			if from > 0 {
				pruned += gotStats.MorselsPruned
				full += gotStats.MorselsFull
			}
		}
	}
	if pruned == 0 || full == 0 {
		t.Fatalf("straddling morsels never skipped (%d) or filled (%d)", pruned, full)
	}
}

// TestFusedAggregateMatchesScan pins the fused fold bitwise to RunScan (the
// materializing reference shares its per-morsel int64 accumulation) at one
// worker, with zone-map verdicts and without.
func TestFusedAggregateMatchesScan(t *testing.T) {
	fact := buildClusteredFact(t, 2*storage.DefaultMorselSize+4321, 3)
	for pi, p := range clusteredPredicates() {
		for _, disable := range []bool{false, true} {
			q := func() *Query { return &Query{Fact: fact, Filter: p, DisableZoneMaps: disable} }
			got, count, stats, err := foldSums(q(), ExprsFromNames([]string{"e_val"}), 1)
			if err != nil {
				t.Fatal(err)
			}
			want, refStats, err := RunScan(q(), "e_val", 1)
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != want {
				t.Fatalf("pred %d disable=%v: fused sum %v != scan %v", pi, disable, got[0], want)
			}
			if count != refStats.RowsSelected {
				t.Fatalf("pred %d: fused count %d != selected %d", pi, count, refStats.RowsSelected)
			}
			// Exactly the zone-map-full morsels fold without a selection
			// vector; with no verdicts there are none.
			if stats.MorselsFused != stats.MorselsFull || (disable && stats.MorselsFull != 0) {
				t.Fatalf("pred %d disable=%v: stats %+v", pi, disable, stats)
			}
		}
	}
	// A date range wide enough to contain a whole morsel must fold it.
	q := &Query{Fact: fact, Filter: algebra.NewPredicate().WithRange("e_date", 20070010, 20070390)}
	_, count, stats, err := foldSums(q, ExprsFromNames([]string{"e_val"}), 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MorselsFused == 0 || stats.MorselsFused != stats.MorselsFull {
		t.Fatalf("no zone-map-full folds: %+v", stats)
	}
	if count == 0 {
		t.Fatal("predicate selected nothing")
	}
}

// TestFusedAggregateExprs covers the expression algebra — literal
// scale/shift folds and the two-column product — on both fused kernels: the
// selective fold (a shuffled conjunct keeps every morsel partial) and the
// full-range fold (a date range containing the whole first morsel). Small
// values keep every float64 exact, so the oracle is a plain loop.
func TestFusedAggregateExprs(t *testing.T) {
	fact := buildClusteredFact(t, storage.DefaultMorselSize+500, 4)
	exprs := []ColumnExpr{
		{Name: "v", Left: "e_val"},
		{Name: "v3", Left: "e_val", Op: '*', RightLit: 3, RightIsLit: true},
		{Name: "vp", Left: "e_val", Op: '+', RightLit: 7, RightIsLit: true},
		{Name: "vm", Left: "e_flag", Op: '-', RightLit: 2, RightIsLit: true},
		{Name: "vv", Left: "e_val", Op: '*', Right: "e_one"},
		{Name: "vs", Left: "e_val", Op: '+', Right: "e_flag"},
		{Name: "vd", Left: "e_val", Op: '-', Right: "e_flag"},
		{Name: "dl", Left: "e_date", Op: '-', RightLit: 20070000, RightIsLit: true},
	}
	date := fact.Column("e_date").Ints
	flag := fact.Column("e_flag").Ints
	val := fact.Column("e_val").Ints
	one := fact.Column("e_one").Ints
	for _, tc := range []struct {
		name           string
		dateLo, dateHi int64
		flagLo, flagHi int64
		wantFull       bool
	}{
		{name: "selective", dateLo: 20070020, dateHi: 20070380, flagLo: 2, flagHi: 40},
		{name: "full-range", dateLo: 20070000, dateHi: 20070398, flagLo: 0, flagHi: 49, wantFull: true},
	} {
		p := algebra.NewPredicate().WithRange("e_date", tc.dateLo, tc.dateHi)
		if !tc.wantFull {
			p = p.WithRange("e_flag", tc.flagLo, tc.flagHi)
		}
		got, count, stats, err := foldSums(&Query{Fact: fact, Filter: p}, exprs, 3)
		if err != nil {
			t.Fatal(err)
		}
		if (stats.MorselsFused > 0) != tc.wantFull {
			t.Fatalf("%s: fused %d morsels: %+v", tc.name, stats.MorselsFused, stats)
		}
		want := make([]int64, len(exprs))
		var wantCount int64
		for i := 0; i < fact.NumRows(); i++ {
			if date[i] < tc.dateLo || date[i] > tc.dateHi || flag[i] < tc.flagLo || flag[i] > tc.flagHi {
				continue
			}
			wantCount++
			want[0] += val[i]
			want[1] += val[i] * 3
			want[2] += val[i] + 7
			want[3] += flag[i] - 2
			want[4] += val[i] * one[i]
			want[5] += val[i] + flag[i]
			want[6] += val[i] - flag[i]
			want[7] += date[i] - 20070000
		}
		for e := range exprs {
			if got[e] != float64(want[e]) {
				t.Fatalf("%s expr %s: %v, want %d", tc.name, exprs[e].Name, got[e], want[e])
			}
		}
		if count != wantCount {
			t.Fatalf("%s: count %d, want %d", tc.name, count, wantCount)
		}
	}
}

// TestFusedAggregateEmptyAndErrors pins RunExact's choice of body: only an
// ungrouped, join-free SUM/COUNT/AVG folds, and every other shape takes the
// group-by sink even where zone-map-full morsels were there to fold. Both
// bodies agree on the answer, and both return no group for a selection of
// no rows.
func TestFusedAggregateEmptyAndErrors(t *testing.T) {
	fact := buildClusteredFact(t, 2*storage.DefaultMorselSize+500, 5)
	full := algebra.NewPredicate().WithRange("e_date", 20070000, 20070399)  // every morsel zone-map-full
	none := algebra.NewPredicate().WithRange("e_one", 5, 6)                 // no row qualifies
	join := []Join{{Dim: buildDim(50), FactKey: "e_flag", DimKey: "d_key"}} // e_flag < 50: keeps every row
	val := Col("e_val")
	sumCountAvg := []Agg{{Expr: val, Kind: approx.Sum}, {Expr: val, Kind: approx.Count}, {Expr: val, Kind: approx.Avg}}
	cases := []struct {
		name   string
		joins  []Join
		groups []string
		aggs   []Agg
		fuses  bool
	}{
		{"ungrouped join-free SUM+COUNT+AVG", nil, nil, sumCountAvg, true},
		{"join", join, nil, sumCountAvg, false},
		{"GROUP BY", nil, []string{"e_one"}, sumCountAvg, false},
		{"MIN", nil, nil, append(sums(val), Agg{Expr: val, Kind: approx.Min}), false},
		{"MAX", nil, nil, append(sums(val), Agg{Expr: val, Kind: approx.Max}), false},
	}
	var wantSum float64
	for _, c := range cases {
		res, stats, err := RunExact(&Query{Fact: fact, Filter: full, Joins: c.joins}, c.groups, c.aggs, 2)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if stats.MorselsFull == 0 || (stats.MorselsFused > 0) != c.fuses {
			t.Fatalf("%s: fused %d of %d full morsels, want fused=%v", c.name, stats.MorselsFused, stats.MorselsFull, c.fuses)
		}
		keys := res.Keys()
		if len(keys) != 1 {
			t.Fatalf("%s: %d groups, want 1", c.name, len(keys))
		}
		sum, ok := res.Value(keys[0], 0)
		if wantSum == 0 {
			wantSum = sum
		}
		if !ok || sum != wantSum {
			t.Fatalf("%s: SUM %v (ok=%v), fold %v", c.name, sum, ok, wantSum)
		}

		res, stats, err = RunExact(&Query{Fact: fact, Filter: none, Joins: c.joins}, c.groups, c.aggs, 2)
		if err != nil {
			t.Fatalf("%s, empty: %v", c.name, err)
		}
		if res.NumGroups() != 0 || stats.RowsSelected != 0 {
			t.Fatalf("%s, empty selection: %d groups over %d rows", c.name, res.NumGroups(), stats.RowsSelected)
		}
		if _, ok := res.Value(GroupKey{}, 0); ok {
			t.Fatalf("%s, empty selection: the empty key has a value", c.name)
		}
	}
	// No outputs.
	if _, _, err := RunExact(&Query{Fact: fact}, nil, nil, 1); err == nil {
		t.Fatal("an empty output list must be rejected")
	}
}

// TestZoneMapSampleBuildEquivalence pins sample builds that skip and fill
// morsels by zone map bitwise to the DisableZoneMaps reference: identical
// strata, weights, and tuples (the selection vectors feeding admission are
// identical, so with the same seed the reservoirs are too).
func TestZoneMapSampleBuildEquivalence(t *testing.T) {
	fact := buildClusteredFact(t, 2*storage.DefaultMorselSize+777, 6)
	p := algebra.NewPredicate().WithRange("e_date", 20070030, 20070370).WithRange("e_flag", 1, 35)
	exprs := ExprsFromNames([]string{"e_flag", "e_val"})
	for _, par := range []int{0, 1} { // 0: the leaf over the whole table; 1: segmented builds, one worker
		build := func(disable bool) *sample.Stratified {
			q := &Query{Fact: fact, Filter: p, DisableZoneMaps: disable}
			var sam sample.Part
			var err error
			if par == 0 {
				sam, _, err = BuildSegmentSample(q, exprs, 1, 64, 99, 1)
			} else {
				sam, _, err = runStratified(q, exprs, 1, 64, 99, 1)
			}
			if err != nil {
				t.Fatal(err)
			}
			return sample.Seal(sam, 1)
		}
		zm, ref := build(false), build(true)
		if zm.NumStrata() != ref.NumStrata() || zm.TotalWeight() != ref.TotalWeight() {
			t.Fatalf("par %d: strata/weight %d/%v vs %d/%v",
				par, zm.NumStrata(), zm.TotalWeight(), ref.NumStrata(), ref.TotalWeight())
		}
		ref.ForEach(func(key sample.StratumKey, r *sample.Reservoir) {
			zr := zm.Stratum(key)
			if zr == nil || zr.Len() != r.Len() || zr.Weight() != r.Weight() {
				t.Fatalf("par %d stratum %v: zone-mapped %v vs reference len=%d weight=%v",
					par, key, zr, r.Len(), r.Weight())
			}
			for i := 0; i < r.Len(); i++ {
				wt, gt := r.Tuple(i), zr.Tuple(i)
				for c := range wt {
					if wt[c] != gt[c] {
						t.Fatalf("par %d stratum %v tuple %d col %d: %d != %d",
							par, key, i, c, gt[c], wt[c])
					}
				}
			}
		})
	}
}
