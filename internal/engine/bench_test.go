package engine

import (
	"fmt"
	"slices"
	"testing"

	"laqy/internal/algebra"
	"laqy/internal/rng"
	"laqy/internal/sample"
	"laqy/internal/ssb"
	"laqy/internal/storage"
)

// q11Years is the depth of date history in the benchmark fact table. The
// repo's ssbgen draws dates uniformly (pruning-hostile by design, see
// lo_intkey's shuffle); this benchmark instead models the deployment zone
// maps target — a warehouse loaded in date order with years of history —
// so a one-year Q1.1 predicate touches a small clustered slice.
const q11Years = 32

// buildQ11Fact builds an SSB Q1.1-shaped fact table: nMorsels morsels of
// lineorder-like rows where lo_orderdate is date-clustered (rows arrive in
// load order) across q11Years years, and discount/quantity are uniform.
// Q1.1's selective conjunct is the one-year date range; on this layout the
// zone map proves every morsel outside that year's slice disjoint.
func buildQ11Fact(nMorsels int) *storage.Table {
	n := nMorsels * storage.DefaultMorselSize
	rg := rng.NewLehmer64(1992)
	date := make([]int64, n)
	disc := make([]int64, n)
	qty := make([]int64, n)
	price := make([]int64, n)
	for i := 0; i < n; i++ {
		year := 19920000 + int64(i*q11Years/n)*10000
		date[i] = year + int64(rg.Intn(12)+1)*100 + int64(rg.Intn(28)+1)
		disc[i] = int64(rg.Intn(11))      // 0..10
		qty[i] = int64(rg.Intn(50) + 1)   // 1..50
		price[i] = int64(rg.Intn(100000)) // extended price
	}
	return storage.MustNewTable("lineorder",
		&storage.Column{Name: "lo_orderdate", Kind: storage.KindInt64, Ints: date},
		&storage.Column{Name: "lo_discount", Kind: storage.KindInt64, Ints: disc},
		&storage.Column{Name: "lo_quantity", Kind: storage.KindInt64, Ints: qty},
		&storage.Column{Name: "lo_extendedprice", Kind: storage.KindInt64, Ints: price},
	)
}

// q11Predicate is SSB Q1.1: one year of orders, discount 1..3, quantity
// under 25 — all single-interval conjuncts, so the zone map sees all of it.
func q11Predicate() algebra.Predicate {
	return algebra.NewPredicate().
		WithRange("lo_orderdate", 20070000, 20071231).
		WithRange("lo_discount", 1, 3).
		WithRange("lo_quantity", 1, 24)
}

// warmZoneMaps builds every segment's zone map outside the timed loop, as a
// warm server would have.
func warmZoneMaps(t *storage.Table) {
	for _, s := range t.Segments() {
		s.ZoneMap()
	}
}

// BenchmarkPrunedScan runs the Q1.1-shaped scan with zone maps on and off.
// The pruned variant reports the fraction of morsels skipped (the
// acceptance target is >0.9 on this clustered layout); the reference
// variant evaluates the filter on every row of every morsel.
func BenchmarkPrunedScan(b *testing.B) {
	const nMorsels = 16
	fact := buildQ11Fact(nMorsels)
	warmZoneMaps(fact)

	run := func(b *testing.B, disable bool) Stats {
		var last Stats
		b.SetBytes(int64(fact.NumRows()) * 3 * 8) // three filter columns
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := &Query{Fact: fact, Filter: q11Predicate(), DisableZoneMaps: disable}
			_, st, err := RunScan(q, "lo_extendedprice", 4)
			if err != nil {
				b.Fatal(err)
			}
			last = st
		}
		return last
	}

	b.Run("pruned", func(b *testing.B) {
		st := run(b, false)
		b.ReportMetric(float64(st.MorselsPruned)/float64(nMorsels), "pruned-frac")
	})
	b.Run("reference", func(b *testing.B) {
		st := run(b, true)
		if st.MorselsPruned != 0 {
			b.Fatalf("reference run pruned %d morsels", st.MorselsPruned)
		}
	})
}

// BenchmarkFusedAggregate measures the fused scan→filter→aggregate path
// (RunExact's fold) against materialize-then-aggregate — the pipeline that
// fills a selection vector and feeds it to a sink (RunScan, the exact path
// before fusion) — under the same zone-map verdicts. Cases:
//
//   - clustered: a contiguous half of the date history, so the inner morsels
//     are zone-map-full and fold in a single straight sum — no selection
//     vector, no gather;
//   - shuffled: a discount range no zone map can decide — nothing folds, but
//     the fused path still skips materialization (select + direct-index
//     fold), so it must not lose to materialize.
func BenchmarkFusedAggregate(b *testing.B) {
	fact := buildQ11Fact(16)
	warmZoneMaps(fact)
	cases := []struct {
		name  string
		pred  algebra.Predicate
		fuses bool // some morsel folds without a selection vector
	}{
		{"clustered", algebra.NewPredicate().WithRange("lo_orderdate", 20000000, 20151231), true},
		{"shuffled", algebra.NewPredicate().WithRange("lo_discount", 1, 3), false},
	}
	for _, tc := range cases {
		b.Run(tc.name+"/fused", func(b *testing.B) {
			var last Stats
			b.SetBytes(int64(fact.NumRows()) * 2 * 8) // filter column + payload
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := &Query{Fact: fact, Filter: tc.pred}
				res, st, err := RunExact(q, nil, sums(Col("lo_extendedprice")), 4)
				if err != nil {
					b.Fatal(err)
				}
				if res.NumGroups() != 1 {
					b.Fatalf("got %d groups", res.NumGroups())
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
			b.SetBytes(int64(fact.NumRows()) * 2 * 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := &Query{Fact: fact, Filter: tc.pred}
				if _, _, err := RunScan(q, "lo_extendedprice", 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSegmentParallelBuild measures the append-then-build cycle of a
// warm warehouse on SSB Q1.1 across segment layouts. Each iteration
// appends one batch to the fact table and rebuilds the stratified sample,
// which is the steady state a lazily-maintained store lives in. Sealed
// segments carry their zone maps across the append untouched
// (pointer-shared summaries, storage.AppendColumns) and the open segment's
// map is extended by the appended rows, so no layout re-reads its table
// to summarize it; the layouts differ in their per-segment builds.
// Run it with `go test -bench SegmentParallelBuild`; see docs/SHARDING.md.
func BenchmarkSegmentParallelBuild(b *testing.B) {
	const nMorsels = 32
	const appendRows = 8192
	base := buildQ11Fact(nMorsels)
	n := base.NumRows()

	// Grown columns: the base rows verbatim plus one batch continuing the
	// load-order tail (zone-map carry-over requires a verbatim prefix).
	grown := make([]*storage.Column, 0, len(base.Columns()))
	for _, c := range base.Columns() {
		ints := make([]int64, 0, n+appendRows)
		ints = append(ints, c.Ints...)
		for j := 0; j < appendRows; j++ {
			ints = append(ints, c.Ints[n-1])
		}
		grown = append(grown, &storage.Column{Name: c.Name, Kind: c.Kind, Ints: ints})
	}

	schema := sample.Schema{"lo_discount", "lo_orderdate", "lo_extendedprice"}
	for _, segments := range []int{1, 4, 8} {
		// Size segments so the last one keeps headroom: the appended batch
		// routes into the open segment instead of spilling a fresh one.
		segRows := n + appendRows // one open segment holds everything
		if segments > 1 {
			segRows = n/segments + appendRows
		}
		seg, err := storage.Resegment(base, segRows)
		if err != nil {
			b.Fatal(err)
		}
		warmZoneMaps(seg) // the pre-append summaries, as on a live server
		b.Run(fmt.Sprintf("segments=%d", segments), func(b *testing.B) {
			b.SetBytes(int64(n+appendRows) * 3 * 8)
			var last Stats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab, err := storage.AppendColumns(seg, grown, segRows)
				if err != nil {
					b.Fatal(err)
				}
				q := &Query{Fact: tab, Filter: q11Predicate()}
				_, st, err := RunStratifiedExprs(q, ExprsFromNames(schema), 1, 256, uint64(i)+1, 4)
				if err != nil {
					b.Fatal(err)
				}
				last = st
			}
			b.StopTimer()
			if segments > 1 && last.Segments != segments {
				b.Fatalf("built %d segments, want %d", last.Segments, segments)
			}
			b.ReportMetric(float64(last.Segments), "segments")
		})
	}
}

// starJoinQuery is SSB Q2.1's star over data: lineorder joined to date,
// part (p_category = 'MFGR#12') and supplier (s_region = 'AMERICA').
func starJoinQuery(data *ssb.Dataset) *Query {
	code := func(t *storage.Table, col, v string) int64 {
		c, _ := t.Column(col).Dict.Code(v)
		return c
	}
	return &Query{Fact: data.Lineorder, Joins: []Join{
		{Dim: data.Date, FactKey: "lo_orderdate", DimKey: "d_datekey"},
		{Dim: data.Part, FactKey: "lo_partkey", DimKey: "p_partkey",
			Filter: algebra.NewPredicate().WithRange("p_category", code(data.Part, "p_category", "MFGR#12"), code(data.Part, "p_category", "MFGR#12"))},
		{Dim: data.Supplier, FactKey: "lo_suppkey", DimKey: "s_suppkey",
			Filter: algebra.NewPredicate().WithRange("s_region", code(data.Supplier, "s_region", "AMERICA"), code(data.Supplier, "s_region", "AMERICA"))},
	}}
}

// sparseKeys returns data with every join key k of date, part and supplier
// (dimension and fact side) replaced by k·10⁹, a layout no array can hold.
func sparseKeys(data *ssb.Dataset) *ssb.Dataset {
	spread := func(t *storage.Table, keyCols ...string) *storage.Table {
		cols := make([]*storage.Column, 0, len(t.Columns()))
		for _, c := range t.Columns() {
			if slices.Contains(keyCols, c.Name) {
				ints := make([]int64, len(c.Ints))
				for i, k := range c.Ints {
					ints[i] = k * 1_000_000_000
				}
				c = &storage.Column{Name: c.Name, Kind: c.Kind, Ints: ints, Dict: c.Dict}
			}
			cols = append(cols, c)
		}
		return storage.MustNewTable(t.Name, cols...)
	}
	out := *data
	out.Lineorder = spread(data.Lineorder, "lo_orderdate", "lo_partkey", "lo_suppkey")
	out.Date = spread(data.Date, "d_datekey")
	out.Part = spread(data.Part, "p_partkey")
	out.Supplier = spread(data.Supplier, "s_suppkey")
	return &out
}

// BenchmarkStarJoin runs the SSB Q2.1-shaped star as an exact group-by by
// d_year and p_brand1, once over the generator's dense dimension keys, whose
// join tables are direct-address arrays, and once over the same rows with
// keys 10⁹ apart, whose tables are hash maps. Q2.1 has no fact predicate, so
// its first probe reads whole morsels off the key column (probeRange); the
// -filtered cases add lo_quantity BETWEEN 1 AND 25, which no zone map
// decides, so every probe runs over a selection vector. Each case asserts the
// representation every join took and the joined row count, which a naive
// pass over the fact rows gives.
//
// The kept-* cases join one dimension under an SSB filter that keeps about
// 0.1 % (Q2.3's one brand of 1 000 parts), 0.8 % (Q3.3's two cities, two
// suppliers 125 keys apart), 20 % (one region) and 86 % (six of seven years
// of dates) of its rows, whole and -filtered, and each asserts that its array
// spans all the dimension's keys behind the miss slot, so every fact key
// lands inside it.
func BenchmarkStarJoin(b *testing.B) {
	data, err := ssb.Generate(ssb.Config{LineorderRows: 4 * storage.DefaultMorselSize, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	quantity := algebra.NewPredicate().WithRange("lo_quantity", 1, 25)
	// The naive join: SSB keys are 1..N, row k−1 holds key k.
	q := starJoinQuery(data)
	part, supp := q.Joins[1], q.Joins[2]
	var want, wantFiltered int64
	for i := 0; i < data.Lineorder.NumRows(); i++ {
		p := data.Lineorder.Column("lo_partkey").Ints[i] - 1
		s := data.Lineorder.Column("lo_suppkey").Ints[i] - 1
		if part.Filter.Matches(map[string]int64{"p_category": data.Part.Column("p_category").Ints[p]}) &&
			supp.Filter.Matches(map[string]int64{"s_region": data.Supplier.Column("s_region").Ints[s]}) {
			want++
			if quantity.Matches(map[string]int64{"lo_quantity": data.Lineorder.Column("lo_quantity").Ints[i]}) {
				wantFiltered++
			}
		}
	}
	if wantFiltered == 0 || wantFiltered == want {
		b.Fatalf("the star joins %d rows, %d of them filtered", want, wantFiltered)
	}
	for _, tc := range []struct {
		name   string
		data   *ssb.Dataset
		array  bool
		filter algebra.Predicate
		want   int64
	}{
		{"dense", data, true, algebra.NewPredicate(), want},
		{"sparse", sparseKeys(data), false, algebra.NewPredicate(), want},
		{"dense-filtered", data, true, quantity, wantFiltered},
		{"sparse-filtered", sparseKeys(data), false, quantity, wantFiltered},
	} {
		b.Run(tc.name, func(b *testing.B) {
			q := starJoinQuery(tc.data)
			q.Filter = tc.filter
			tables, err := buildJoinTables(q)
			if err != nil {
				b.Fatal(err)
			}
			for _, jt := range tables {
				if (jt.rowByKey == nil) != tc.array {
					b.Fatalf("join on %s: array=%v, want %v", q.Joins[jt.slot].Dim.Name, jt.rowByKey == nil, tc.array)
				}
			}
			b.SetBytes(int64(q.Fact.NumRows()) * 4 * 8) // three keys + payload
			b.ReportAllocs()
			b.ResetTimer()
			var last Stats
			for i := 0; i < b.N; i++ {
				_, st, err := RunExact(q, []string{"d_year", "p_brand1"}, sums(Col("lo_revenue")), 2)
				if err != nil {
					b.Fatal(err)
				}
				last = st
			}
			b.StopTimer()
			if last.RowsSelected != tc.want {
				b.Fatalf("joined %d rows, want %d", last.RowsSelected, tc.want)
			}
			if !tc.filter.IsTrue() && last.MorselsFull != 0 {
				b.Fatalf("%d zone-map-full morsels: the filtered case must probe selection vectors", last.MorselsFull)
			}
		})
	}
	code := func(t *storage.Table, col, v string) int64 {
		c, _ := t.Column(col).Dict.Code(v)
		return c
	}
	for _, tc := range []struct {
		name  string
		join  Join
		group string
	}{
		{"kept-0.1%", Join{Dim: data.Part, FactKey: "lo_partkey", DimKey: "p_partkey",
			Filter: algebra.NewPredicate().WithPoint("p_brand1", code(data.Part, "p_brand1", "MFGR#2239"))}, "p_brand1"},
		{"kept-0.8%-spread", Join{Dim: data.Supplier, FactKey: "lo_suppkey", DimKey: "s_suppkey",
			Filter: algebra.NewPredicate().With("s_city", algebra.NewSet(algebra.Point(120), algebra.Point(125)))}, "s_city"},
		{"kept-20%", Join{Dim: data.Supplier, FactKey: "lo_suppkey", DimKey: "s_suppkey",
			Filter: algebra.NewPredicate().WithPoint("s_region", code(data.Supplier, "s_region", "AMERICA"))}, "s_nation"},
		{"kept-86%", Join{Dim: data.Date, FactKey: "lo_orderdate", DimKey: "d_datekey",
			Filter: algebra.NewPredicate().WithRange("d_year", 1992, 1997)}, "d_year"},
	} {
		// The naive join: each fact key's dimension row, through a map.
		dimRow := map[int64]int{}
		for i, k := range tc.join.Dim.Column(tc.join.DimKey).Ints {
			dimRow[k] = i
		}
		var want, wantFiltered int64
		for i, k := range data.Lineorder.Column(tc.join.FactKey).Ints {
			row := map[string]int64{}
			for _, col := range tc.join.Filter.Columns() {
				row[col] = tc.join.Dim.Column(col).Ints[dimRow[k]]
			}
			if tc.join.Filter.Matches(row) {
				want++
				if quantity.Matches(map[string]int64{"lo_quantity": data.Lineorder.Column("lo_quantity").Ints[i]}) {
					wantFiltered++
				}
			}
		}
		for _, filtered := range []bool{false, true} {
			name, filter, want := tc.name, algebra.NewPredicate(), want
			if filtered {
				name, filter, want = name+"-filtered", quantity, wantFiltered
			}
			b.Run(name, func(b *testing.B) {
				q := &Query{Fact: data.Lineorder, Filter: filter, Joins: []Join{tc.join}}
				tables, err := buildJoinTables(q)
				if err != nil {
					b.Fatal(err)
				}
				keys := tc.join.Dim.Column(tc.join.DimKey).Ints
				lo, hi := slices.Min(keys), slices.Max(keys)
				if jt := tables[0]; jt.rowByKey != nil || jt.lo != lo || int64(len(jt.rows)) != hi-lo+2 || jt.rows[0] != -1 {
					b.Fatalf("kept %d of %d: array=%v from %d of %d slots, want an array from %d of %d with a miss slot",
						jt.kept, jt.dimRows, jt.rowByKey == nil, jt.lo, len(jt.rows), lo, hi-lo+2)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var last Stats
				for i := 0; i < b.N; i++ {
					_, st, err := RunExact(q, []string{tc.group}, sums(Col("lo_revenue")), 2)
					if err != nil {
						b.Fatal(err)
					}
					last = st
				}
				b.StopTimer()
				if last.RowsSelected != want {
					b.Fatalf("joined %d rows, want %d", last.RowsSelected, want)
				}
			})
		}
	}
}
