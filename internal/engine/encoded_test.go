package engine

//laqy:allow rngsource randomized equivalence inputs; determinism comes from fixed seeds, not laqy/internal/rng

import (
	"math/rand"
	"testing"

	"laqy/internal/algebra"
	"laqy/internal/sample"
	"laqy/internal/storage"
)

// buildClusteredFact builds a sealed multi-segment fact shaped for the
// encodings: e_date is sorted with long runs (RLE), e_one is constant, and
// three columns stay plain — e_flag (a narrow shuffled domain), e_pair
// (average run 2: shorter than the RLE adoption threshold) and e_wide
// (noise); e_val is the small aggregation payload.
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

// encodedPredicates is the predicate zoo the equivalence tests sweep: every
// kernel shape (RLE produce/refine under one-, two- and many-interval run
// tests, const, plain fallback beside encoded conjuncts, zone-map
// interactions).
func encodedPredicates() []algebra.Predicate {
	return []algebra.Predicate{
		algebra.NewPredicate().WithRange("e_date", 20070100, 20070250),
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
		algebra.NewPredicate(), // trivial: full morsels, no encoding involved
	}
}

// twoDateRanges is the Δ-range shape over the RLE date column: two
// intervals, so no zone map applies and every morsel runs the run-granular
// kernels under the branchless two-interval test.
func twoDateRanges() algebra.Set {
	return algebra.NewSet(algebra.Interval{Lo: 20070050, Hi: 20070120}, algebra.Interval{Lo: 20070200, Hi: 20070290})
}

// TestEncodedScanEquivalence pins RunScan over encoded segments bitwise to
// the DisableEncoding reference at one worker, and exactly (small integer
// sums) at several workers, across the predicate zoo.
func TestEncodedScanEquivalence(t *testing.T) {
	fact := buildClusteredFact(t, 3*storage.DefaultMorselSize+1234, 1)
	for pi, p := range encodedPredicates() {
		for _, workers := range []int{1, 4} {
			enc := &Query{Fact: fact, Filter: p}
			ref := &Query{Fact: fact, Filter: p, DisableEncoding: true}
			got, gotStats, err := RunScan(enc, "e_val", workers)
			if err != nil {
				t.Fatal(err)
			}
			want, refStats, err := RunScan(ref, "e_val", workers)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("pred %d workers %d: encoded sum %v != plain %v", pi, workers, got, want)
			}
			if gotStats.RowsSelected != refStats.RowsSelected {
				t.Fatalf("pred %d: selected %d vs %d", pi, gotStats.RowsSelected, refStats.RowsSelected)
			}
			if refStats.MorselsEncoded != 0 {
				t.Fatalf("pred %d: reference path reported %d encoded morsels", pi, refStats.MorselsEncoded)
			}
		}
	}
	// A predicate over encoded columns must actually take the encoded path
	// on morsels the zone map can neither skip nor fully pass.
	q := &Query{Fact: fact, Filter: algebra.NewPredicate().With("e_date", twoDateRanges())}
	_, stats, err := RunScan(q, "e_val", 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MorselsEncoded == 0 {
		t.Fatalf("no encoded morsels: %+v", stats)
	}
}

// TestNeverSlowerAdoption is the structural half of "an encoded scan is
// never slower than the plain compare": columns whose encoded kernels would
// lose to the plain loop — a shuffled narrow domain (what frame-of-reference
// packing used to adopt) and an average-run-2 column (what the byte-count
// rule used to hand to RLE) — get no EncodedCol, so a filter over them binds
// nothing and every morsel runs the plain kernels; the date-clustered column
// still binds RLE and its runs still fold without a selection vector.
func TestNeverSlowerAdoption(t *testing.T) {
	fact := buildClusteredFact(t, 3*storage.DefaultMorselSize+1234, 7)
	for _, seg := range fact.Segments() {
		enc := seg.Encoding()
		if enc == nil { // the open segment
			continue
		}
		for _, name := range []string{"e_flag", "e_pair", "e_wide", "e_val"} {
			if ec := enc.Col(name); ec != nil {
				t.Fatalf("segment at %d: %s encoded as %v", seg.Start(), name, ec.Kind)
			}
		}
		if ec := enc.Col("e_date"); ec == nil || ec.Kind != storage.EncRLE {
			t.Fatalf("segment at %d: e_date = %+v, want rle", seg.Start(), ec)
		}
		if enc.PhysicalBytes() > enc.LogicalBytes() {
			t.Fatalf("segment at %d: a scan reads %d bytes of %d plain", seg.Start(), enc.PhysicalBytes(), enc.LogicalBytes())
		}
	}
	plain := algebra.NewPredicate().WithRange("e_flag", 5, 20).WithRange("e_pair", 10, 60)
	_, stats, err := RunScan(&Query{Fact: fact, Filter: plain}, "e_val", 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MorselsEncoded != 0 || stats.RowsSelected == 0 {
		t.Fatalf("filter over plain columns: %+v", stats)
	}
	_, stats, err = RunAggregate(&Query{Fact: fact, Filter: plain}, ExprsFromNames([]string{"e_val"}), 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MorselsEncoded != 0 || stats.MorselsFused != 0 {
		t.Fatalf("fused plan over plain columns: %+v", stats)
	}
	dates := algebra.NewPredicate().With("e_date", twoDateRanges())
	_, stats, err = RunAggregate(&Query{Fact: fact, Filter: dates}, ExprsFromNames([]string{"e_val"}), 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MorselsEncoded == 0 || stats.MorselsFused == 0 {
		t.Fatalf("date-clustered filter: %+v", stats)
	}
}

// TestEncodedScanDeltaBounds exercises scan ranges that start mid-segment
// (Δ-maintenance shape): straddling morsels fall back to plain kernels and
// answers stay identical.
func TestEncodedScanDeltaBounds(t *testing.T) {
	fact := buildClusteredFact(t, 2*storage.DefaultMorselSize+999, 2)
	p := algebra.NewPredicate().WithRange("e_date", 20070010, 20070390).WithRange("e_flag", 0, 30)
	for _, from := range []int{1, storage.DefaultMorselSize / 2, storage.DefaultMorselSize + 7} {
		enc := &Query{Fact: fact, Filter: p, ScanFrom: from}
		ref := &Query{Fact: fact, Filter: p, ScanFrom: from, DisableEncoding: true}
		got, _, err := RunScan(enc, "e_val", 1)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := RunScan(ref, "e_val", 1)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("ScanFrom %d: %v != %v", from, got, want)
		}
	}
}

// TestFusedAggregateMatchesScan pins the fused path bitwise to RunScan (the
// materializing reference shares its per-morsel int64 accumulation) at one
// worker, for both the encoded and the DisableEncoding variants.
func TestFusedAggregateMatchesScan(t *testing.T) {
	fact := buildClusteredFact(t, 2*storage.DefaultMorselSize+4321, 3)
	for pi, p := range encodedPredicates() {
		for _, disable := range []bool{false, true} {
			q := func() *Query { return &Query{Fact: fact, Filter: p, DisableEncoding: disable} }
			aggs, stats, err := RunAggregate(q(), ExprsFromNames([]string{"e_val"}), 1)
			if err != nil {
				t.Fatal(err)
			}
			want, refStats, err := RunScan(q(), "e_val", 1)
			if err != nil {
				t.Fatal(err)
			}
			if aggs[0].Sum != want {
				t.Fatalf("pred %d disable=%v: fused sum %v != scan %v", pi, disable, aggs[0].Sum, want)
			}
			if aggs[0].Count != refStats.RowsSelected {
				t.Fatalf("pred %d: fused count %d != selected %d", pi, aggs[0].Count, refStats.RowsSelected)
			}
			if disable && (stats.MorselsEncoded != 0 || stats.MorselsFused != stats.MorselsFull) {
				// The plain fused path still folds pruned-full morsels.
				t.Fatalf("pred %d: plain-path stats %+v", pi, stats)
			}
		}
	}
	// An all-RLE/const conjunct set must fold via PassRuns even where the
	// zone map reports partial morsels.
	q := &Query{Fact: fact, Filter: algebra.NewPredicate().WithRange("e_date", 20070100, 20070299)}
	aggs, stats, err := RunAggregate(q, ExprsFromNames([]string{"e_val"}), 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MorselsFused <= stats.MorselsFull {
		t.Fatalf("no PassRuns folds: %+v", stats)
	}
	if aggs[0].Count == 0 {
		t.Fatal("predicate selected nothing")
	}
}

// TestFusedAggregateExprs covers the expression algebra: literal
// scale/shift folds on encoded and plain operands, and the two-column
// product fallback. Small values keep every float64 exact, so the oracle
// is a plain loop.
func TestFusedAggregateExprs(t *testing.T) {
	fact := buildClusteredFact(t, storage.DefaultMorselSize+500, 4)
	p := algebra.NewPredicate().WithRange("e_date", 20070020, 20070380).WithRange("e_flag", 2, 40)
	exprs := []ColumnExpr{
		{Name: "v", Left: "e_val"},
		{Name: "v3", Left: "e_val", Op: '*', RightLit: 3, RightIsLit: true},
		{Name: "vp", Left: "e_val", Op: '+', RightLit: 7, RightIsLit: true},
		{Name: "vm", Left: "e_flag", Op: '-', RightLit: 2, RightIsLit: true},
		{Name: "vv", Left: "e_val", Op: '*', Right: "e_one"},
		{Name: "dl", Left: "e_date", Op: '-', RightLit: 20070000, RightIsLit: true},
	}
	aggs, _, err := RunAggregate(&Query{Fact: fact, Filter: p}, exprs, 3)
	if err != nil {
		t.Fatal(err)
	}

	date := fact.Column("e_date").Ints
	flag := fact.Column("e_flag").Ints
	val := fact.Column("e_val").Ints
	one := fact.Column("e_one").Ints
	want := make([]int64, len(exprs))
	var count int64
	for i := 0; i < fact.NumRows(); i++ {
		if date[i] < 20070020 || date[i] > 20070380 || flag[i] < 2 || flag[i] > 40 {
			continue
		}
		count++
		want[0] += val[i]
		want[1] += val[i] * 3
		want[2] += val[i] + 7
		want[3] += flag[i] - 2
		want[4] += val[i] * one[i]
		want[5] += date[i] - 20070000
	}
	for e := range exprs {
		if aggs[e].Sum != float64(want[e]) {
			t.Fatalf("expr %s: %v, want %d", exprs[e].Name, aggs[e].Sum, want[e])
		}
		if aggs[e].Count != count {
			t.Fatalf("expr %s: count %d, want %d", exprs[e].Name, aggs[e].Count, count)
		}
	}
}

func TestFusedAggregateEmptyAndErrors(t *testing.T) {
	fact := buildClusteredFact(t, storage.DefaultMorselSize, 5)
	// Nothing qualifies.
	aggs, _, err := RunAggregate(&Query{Fact: fact, Filter: algebra.NewPredicate().WithRange("e_one", 5, 6)},
		ExprsFromNames([]string{"e_val"}), 2)
	if err != nil {
		t.Fatal(err)
	}
	if aggs[0].Count != 0 || aggs[0].Sum != 0 {
		t.Fatalf("empty selection: %+v", aggs[0])
	}
	// Joins are not fused.
	dim := buildDim(10)
	_, _, err = RunAggregate(&Query{Fact: fact, Joins: []Join{{Dim: dim, FactKey: "e_flag", DimKey: "d_key"}}},
		ExprsFromNames([]string{"e_val"}), 1)
	if err == nil {
		t.Fatal("join query must be rejected")
	}
	// No expressions.
	if _, _, err = RunAggregate(&Query{Fact: fact}, nil, 1); err == nil {
		t.Fatal("empty expression list must be rejected")
	}
}

// TestEncodedSampleBuildEquivalence pins sample builds over encoded
// segments bitwise to the DisableEncoding reference: identical strata,
// weights, and tuples (the selection vectors feeding admission are
// identical, so with the same seed the reservoirs are too).
func TestEncodedSampleBuildEquivalence(t *testing.T) {
	fact := buildClusteredFact(t, 2*storage.DefaultMorselSize+777, 6)
	p := algebra.NewPredicate().WithRange("e_date", 20070030, 20070370).WithRange("e_flag", 1, 35)
	exprs := ExprsFromNames([]string{"e_flag", "e_val"})
	for _, par := range []int{0, 1} { // 0: the leaf over the whole table; 1: serialized segmented builds
		build := func(disable bool) *sample.Stratified {
			q := &Query{Fact: fact, Filter: p, SegmentParallelism: par, DisableEncoding: disable}
			var sam *sample.Stratified
			var err error
			if par == 0 {
				sam, _, err = BuildSegmentSample(q, exprs, 1, 64, 99, 1)
			} else {
				sam, _, err = RunStratifiedExprs(q, exprs, 1, 64, 99, 1, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			return sam
		}
		enc, ref := build(false), build(true)
		if enc.NumStrata() != ref.NumStrata() || enc.TotalWeight() != ref.TotalWeight() {
			t.Fatalf("par %d: strata/weight %d/%v vs %d/%v",
				par, enc.NumStrata(), enc.TotalWeight(), ref.NumStrata(), ref.TotalWeight())
		}
		ref.ForEach(func(key sample.StratumKey, r *sample.Reservoir) {
			er := enc.Stratum(key)
			if er == nil || er.Len() != r.Len() || er.Weight() != r.Weight() {
				t.Fatalf("par %d stratum %v: encoded %v vs reference len=%d weight=%v",
					par, key, er, r.Len(), r.Weight())
			}
			for i := 0; i < r.Len(); i++ {
				wt, gt := r.Tuple(i), er.Tuple(i)
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
