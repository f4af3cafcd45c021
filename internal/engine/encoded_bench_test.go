package engine

//laqy:allow rngsource bench data shaping; determinism comes from fixed seeds, not laqy/internal/rng

import (
	"math/rand"
	"testing"

	"laqy/internal/algebra"
	"laqy/internal/storage"
)

// encBenchMorsels sizes the encoded benchmarks: 16 morsels ≈ 1M rows, large
// enough that the fact spills L2 and the byte-traffic difference between
// packed and plain columns is visible.
const encBenchMorsels = 16

// buildEncBenchFact builds the sealed fact the encoded benchmarks share.
// One column per adoption case: eb_date is date-clustered (~400 long runs,
// RLE), eb_one is constant, and the rest stay plain because their encoded
// scan would lose to the plain compare — eb_flag (a shuffled narrow domain),
// eb_short (average run 3), eb_val (a narrow shuffled payload) and eb_rev
// (the full-width revenue-shaped payload, the realistic aggregation target).
func buildEncBenchFact(b *testing.B) *storage.Table {
	n := encBenchMorsels * storage.DefaultMorselSize
	rnd := rand.New(rand.NewSource(10))
	date := make([]int64, n)
	flag := make([]int64, n)
	one := make([]int64, n)
	short := make([]int64, n)
	val := make([]int64, n)
	rev := make([]int64, n)
	for i := 0; i < n; i++ {
		date[i] = 20070000 + int64(i*400/n)
		flag[i] = rnd.Int63n(50)
		one[i] = 1
		if i == 0 || rnd.Intn(3) == 0 {
			short[i] = rnd.Int63n(50)
		} else {
			short[i] = short[i-1]
		}
		val[i] = rnd.Int63n(1000)
		rev[i] = int64(rnd.Uint64() >> 1)
	}
	tab := storage.MustNewTable("encbench",
		&storage.Column{Name: "eb_date", Kind: storage.KindInt64, Ints: date},
		&storage.Column{Name: "eb_flag", Kind: storage.KindInt64, Ints: flag},
		&storage.Column{Name: "eb_one", Kind: storage.KindInt64, Ints: one},
		&storage.Column{Name: "eb_short", Kind: storage.KindInt64, Ints: short},
		&storage.Column{Name: "eb_val", Kind: storage.KindInt64, Ints: val},
		&storage.Column{Name: "eb_rev", Kind: storage.KindInt64, Ints: rev},
	)
	tab, err := storage.Resegment(tab, storage.DefaultMorselSize)
	if err != nil {
		b.Fatal(err)
	}
	tab, err = storage.Seal(tab)
	if err != nil {
		b.Fatal(err)
	}
	// Build the encodings outside the timed loops, as a warm server would.
	tab.EncodedSizes()
	return tab
}

// seasonalDates is the clustered-scan predicate: eight short date intervals
// spread across the history (the SSB Q1.2/Q1.3 shape — a slice of every
// year). The zone map skips morsels between intervals but can never prove a
// morsel full, so the surviving morsels all hit the selection kernels —
// run-granular on the encoded path, row-at-a-time on the plain one.
func seasonalDates() algebra.Set {
	var ivs []algebra.Interval
	for y := int64(0); y < 400; y += 50 {
		ivs = append(ivs, algebra.Interval{Lo: 20070000 + y, Hi: 20070011 + y})
	}
	return algebra.NewSet(ivs...)
}

// BenchmarkEncodedScan measures the scan the product runs over sealed
// segments (encoded kernels where storage adopted an encoding) against the
// plain-path reference (DisableEncoding) on the same fact and predicates.
// Cases, one per adoption outcome:
//
//   - clustered: multi-interval date predicate over the RLE column — one
//     predicate test per run plus compare-free fills, versus a per-row
//     interval-set test;
//   - const: constant conjunct stacked on the date predicate — an O(1)
//     morsel fill refined run-granularly, versus two per-row tests;
//   - shuffled: range predicate over the shuffled narrow-domain column;
//   - shortruns: range predicate over the average-run-3 column.
//
// The last two are the never-slower cases: storage declines both columns
// (bit-packing the first and run-encoding the second each scanned slower
// than plain), so no morsel binds an encoding and the "encoded" row must sit
// level with its plain twin.
//
// SetBytes counts the logical bytes of the touched columns, so MB/s is
// comparable within a case and the encoded/plain ratio is the kernel
// speedup (BENCH_PR10.json tracks it; acceptance wants ≥1.5× on clustered
// and ≥0.95× everywhere).
func BenchmarkEncodedScan(b *testing.B) {
	fact := buildEncBenchFact(b)
	phys, logical := fact.EncodedSizes()

	cases := []struct {
		name  string
		pred  algebra.Predicate
		cols  int  // touched columns: filter conjuncts + the aggregated payload
		binds bool // some conjunct is over an encoded column
	}{
		{"clustered", algebra.NewPredicate().With("eb_date", seasonalDates()), 2, true},
		{"shuffled", algebra.NewPredicate().WithRange("eb_flag", 5, 20), 2, false},
		{"shortruns", algebra.NewPredicate().WithRange("eb_short", 5, 20), 2, false},
		{"const", algebra.NewPredicate().WithRange("eb_one", 1, 1).With("eb_date", seasonalDates()), 3, true},
	}
	for _, tc := range cases {
		run := func(b *testing.B, disable bool) Stats {
			var last Stats
			b.SetBytes(int64(fact.NumRows()) * int64(tc.cols) * 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := &Query{Fact: fact, Filter: tc.pred, DisableEncoding: disable}
				_, st, err := RunScan(q, "eb_val", 4)
				if err != nil {
					b.Fatal(err)
				}
				last = st
			}
			return last
		}
		b.Run(tc.name+"/encoded", func(b *testing.B) {
			st := run(b, false)
			if (st.MorselsEncoded > 0) != tc.binds {
				b.Fatalf("encoded morsels = %d, want binds=%v: %+v", st.MorselsEncoded, tc.binds, st)
			}
			b.ReportMetric(float64(phys)/float64(logical), "phys-frac")
		})
		b.Run(tc.name+"/plain", func(b *testing.B) {
			st := run(b, true)
			if st.MorselsEncoded != 0 {
				b.Fatalf("plain reference took the encoded path: %+v", st)
			}
		})
	}
}

// BenchmarkFusedAggregate measures the fused scan→filter→aggregate path
// (RunAggregate over encoded segments) against materialize-then-aggregate —
// the plain pipeline that fills a selection vector and feeds it to a sink
// (RunScan with DisableEncoding, the exact path before fusion). Cases:
//
//   - clustered: a contiguous one-half date range over the plain
//     revenue-shaped payload, so inner morsels are zone-map-full and fold
//     in a single straight sum — no selection vector, no gather;
//   - shuffled: a flag range no zone map can decide and no encoding binds,
//     over the plain payload — nothing folds, but the fused path still skips
//     materialization (plain select + direct-index fold), so it must not
//     lose to materialize;
//   - const: SUM over the constant column under the date range — full
//     morsels fold in O(1) run arithmetic.
//
// The acceptance floor is ≥2× on the clustered case and ≥0.95× on the
// shuffled one (BENCH_PR10.json).
func BenchmarkFusedAggregate(b *testing.B) {
	fact := buildEncBenchFact(b)
	halfDates := algebra.NewPredicate().WithRange("eb_date", 20070100, 20070299)

	cases := []struct {
		name  string
		pred  algebra.Predicate
		agg   string
		cols  int
		fuses bool // some morsel folds without a selection vector
	}{
		{"clustered", halfDates, "eb_rev", 2, true},
		{"shuffled", algebra.NewPredicate().WithRange("eb_flag", 5, 20), "eb_val", 2, false},
		{"const", halfDates, "eb_one", 2, true},
	}
	for _, tc := range cases {
		b.Run(tc.name+"/fused", func(b *testing.B) {
			var last Stats
			b.SetBytes(int64(fact.NumRows()) * int64(tc.cols) * 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := &Query{Fact: fact, Filter: tc.pred}
				aggs, st, err := RunAggregate(q, ExprsFromNames([]string{tc.agg}), 4)
				if err != nil {
					b.Fatal(err)
				}
				if len(aggs) != 1 {
					b.Fatalf("got %d aggregates", len(aggs))
				}
				last = st
			}
			b.StopTimer()
			if (last.MorselsFused > 0) != tc.fuses {
				b.Fatalf("fused morsels = %d, want fuses=%v: %+v", last.MorselsFused, tc.fuses, last)
			}
			b.ReportMetric(float64(last.MorselsFused), "fused-morsels")
		})
		b.Run(tc.name+"/materialize", func(b *testing.B) {
			b.SetBytes(int64(fact.NumRows()) * int64(tc.cols) * 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := &Query{Fact: fact, Filter: tc.pred, DisableEncoding: true}
				if _, _, err := RunScan(q, tc.agg, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
