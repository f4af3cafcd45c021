package engine

import (
	"fmt"
	"math"
	"math/big"
	"slices"
	"testing"

	"laqy/internal/algebra"
	"laqy/internal/approx"
	"laqy/internal/rng"
	"laqy/internal/storage"
)

// TestRandomizedQueriesAgainstOracle cross-checks the vectorized parallel
// engine against a naive row-at-a-time reference implementation on random
// star queries: random fact data, random predicates on fact columns, up to
// three dimension joins with independent filters (so the probe order varies
// across trials), random group columns. Any divergence in group sets,
// counts, or sums is a bug in the scan/filter/join/aggregate pipeline.
//
// Each joined dimension's keys take one of four layouts, which between them
// force both join-table representations: dense keys with holes, keys 10⁹
// apart, keys at both ends of int64 (the span arithmetic must not overflow),
// and the bottom end alone. One fact key in nine has no dimension row, and one
// filter in twelve keeps no dimension row at all, and another exactly 1, 2, 62
// or 63 of the 64 rows, so that the kept keys match almost none, few, most or
// almost all of the fact keys. The test checks, from the kept keys, the
// representation and probe order each run built.
//
// Half the trials have a random partial fact predicate over the whole table,
// so their first join probe takes a selection vector. The other half add
// trials that start at a nonzero ScanFrom, trials with no fact predicate and
// trials whose predicate the zone map proves full: a whole morsel's first
// join probe reads the key column straight (probeRange), and the test checks
// that each kind ran.
func TestRandomizedQueriesAgainstOracle(t *testing.T) {
	r := rng.NewLehmer64(2024)
	const nFact, nDim, nAbsent, maxJoins = 20000, 64, 8, 3
	// A layout spells nDim dimension keys and, at i >= nDim, nAbsent keys no
	// dimension row has: holes inside the dense spans, keys past them, and
	// for the bottom layout the far end of int64, where key−lo overflows
	// and the probe's bounds test must wrap around.
	layouts := []struct {
		name string
		key  func(i int) int64
	}{
		{"dense", func(i int) int64 {
			switch {
			case i < nDim:
				return int64(3*i - 100)
			case i%2 == 0:
				return int64(3*(i-nDim) - 99) // a hole
			}
			return int64(-200 - i) // below the span
		}},
		{"sparse", func(i int) int64 { return int64(i) * 1_000_000_000 }},
		{"extremes", func(i int) int64 {
			if i%2 == 0 {
				return math.MinInt64 + int64(i)
			}
			return math.MaxInt64 - int64(i)
		}},
		{"bottom", func(i int) int64 {
			switch {
			case i < nDim:
				return math.MinInt64 + 2*int64(i)
			case i%2 == 0:
				return math.MinInt64 + 2*int64(i-nDim) + 1 // a hole
			}
			return math.MaxInt64 - int64(i)
		}},
	}

	// Fact: key (unique), a (0..19), b (0..99), val, and per join slot j the
	// index of its dimension row (>= nDim: absent), spelled as a key column
	// fk<j>_<layout> per layout.
	key := make([]int64, nFact)
	a := make([]int64, nFact)
	bcol := make([]int64, nFact)
	val := make([]int64, nFact)
	var dimIdx [maxJoins][]int
	for j := range dimIdx {
		dimIdx[j] = make([]int, nFact)
	}
	for i := 0; i < nFact; i++ {
		key[i] = int64(i)
		a[i] = int64(r.Intn(20))
		bcol[i] = int64(r.Intn(100))
		val[i] = int64(r.Intn(10000) - 5000)
		for j := range dimIdx {
			dimIdx[j][i] = r.Intn(nDim + nAbsent)
		}
	}
	factCols := []*storage.Column{
		{Name: "key", Kind: storage.KindInt64, Ints: key},
		{Name: "a", Kind: storage.KindInt64, Ints: a},
		{Name: "b", Kind: storage.KindInt64, Ints: bcol},
		{Name: "val", Kind: storage.KindInt64, Ints: val},
	}
	// Dimension j under layout l: row i has key pools[l][i] (the layout's
	// first nDim keys in shuffled order), attr<j> in 0..7 and pos<j> = i;
	// pools[l][nDim:] are the absent keys.
	var dims [maxJoins][]*storage.Table
	var attrs [maxJoins][]int64
	pools := make([][]int64, len(layouts))
	for l, lay := range layouts {
		pools[l] = make([]int64, nDim+nAbsent)
		for i := range pools[l] {
			pools[l][i] = lay.key(i)
		}
		r.Shuffle(nDim, func(x, y int) { pools[l][x], pools[l][y] = pools[l][y], pools[l][x] })
	}
	pos := make([]int64, nDim)
	for i := range pos {
		pos[i] = int64(i)
	}
	for j := range dims {
		attrs[j] = make([]int64, nDim)
		for i := range attrs[j] {
			attrs[j][i] = int64(r.Intn(8))
		}
		for l, lay := range layouts {
			fk := make([]int64, nFact)
			for i, idx := range dimIdx[j] {
				fk[i] = pools[l][idx]
			}
			factCols = append(factCols, &storage.Column{Name: fmt.Sprintf("fk%d_%s", j, lay.name), Kind: storage.KindInt64, Ints: fk})
			dims[j] = append(dims[j], storage.MustNewTable(fmt.Sprintf("d%d_%s", j, lay.name),
				&storage.Column{Name: "dkey", Kind: storage.KindInt64, Ints: pools[l][:nDim]},
				&storage.Column{Name: fmt.Sprintf("attr%d", j), Kind: storage.KindInt64, Ints: attrs[j]},
				&storage.Column{Name: fmt.Sprintf("pos%d", j), Kind: storage.KindInt64, Ints: pos},
			))
		}
	}
	fact := storage.MustNewTable("fact", factCols...)

	var arrays, maps, empties, exactKept, reordered, unfiltered, zoneFull, offset int
	for trial := 0; trial < 120; trial++ {
		// The first 60 trials scan the whole table with a random partial
		// predicate. The 60 after them: half scan from a row inside the
		// table, so their morsels start at a nonzero row, and a third each
		// have no fact predicate, one the zone map proves full, or a random
		// partial one.
		q := &Query{Fact: fact}
		kind := 2
		if trial >= 60 {
			if r.Intn(2) == 0 {
				q.ScanFrom = 1 + r.Intn(nFact-1)
				if r.Intn(2) == 0 {
					q.ScanTo = q.ScanFrom + 1 + r.Intn(nFact-q.ScanFrom)
				}
			}
			kind = r.Intn(3)
		}
		from, to := q.scanBounds()
		pred := algebra.NewPredicate()
		switch kind {
		case 0: // no fact predicate
		case 1: // key is the row index, so the zone map proves every morsel full
			pred = pred.WithRange("key", int64(from-r.Intn(10)), int64(to+r.Intn(10)))
		default:
			if r.Intn(2) == 0 {
				lo := int64(r.Intn(nFact))
				pred = pred.WithRange("key", lo, lo+int64(r.Intn(nFact)))
			}
			if r.Intn(2) == 0 {
				lo := int64(r.Intn(15))
				pred = pred.WithRange("a", lo, lo+int64(r.Intn(8)))
			}
		}
		q.Filter = pred
		slots := r.Perm(maxJoins)[:r.Intn(maxJoins+1)] // join i is dimension slots[i]
		for _, j := range slots {
			attr := fmt.Sprintf("attr%d", j)
			filter := algebra.NewPredicate()
			switch c := r.Intn(12); {
			case c == 0:
				filter = filter.WithRange(attr, 100, 200) // keeps no row
			case c == 1: // keeps 1, 2, 62 or 63 rows
				var rows []algebra.Interval
				for _, i := range r.Perm(nDim)[:[]int{1, 2, 62, 63}[r.Intn(4)]] {
					rows = append(rows, algebra.Point(int64(i)))
				}
				filter = filter.With(fmt.Sprintf("pos%d", j), algebra.NewSet(rows...))
			case c >= 7:
				lo := int64(r.Intn(8))
				filter = filter.WithRange(attr, lo, lo+int64(r.Intn(8)))
			}
			l := r.Intn(len(layouts))
			q.Joins = append(q.Joins, Join{Dim: dims[j][l], FactKey: fmt.Sprintf("fk%d_%s", j, layouts[l].name), DimKey: "dkey", Filter: filter})
		}
		groupCols := [][]string{{"a"}, {"b"}, {"a", "b"}}[r.Intn(3)]
		if len(slots) > 0 && r.Intn(2) == 0 {
			groupCols = []string{fmt.Sprintf("attr%d", slots[r.Intn(len(slots))])}
			if r.Intn(2) == 0 {
				groupCols = append(groupCols, "a")
			}
		}

		// The join tables this query builds: representation by the
		// denseSpanFactor rule over the kept keys, probe order by ascending
		// kept fraction with ties in join order.
		tables, err := buildJoinTables(q)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for p, jt := range tables {
			jn := q.Joins[jt.slot]
			var kept []int64
			for i, k := range jn.Dim.Column("dkey").Ints {
				j := slots[jt.slot]
				if jn.Filter.Matches(map[string]int64{fmt.Sprintf("attr%d", j): attrs[j][i], fmt.Sprintf("pos%d", j): int64(i)}) {
					kept = append(kept, k)
				}
			}
			wantArray := len(kept) == 0
			if len(kept) > 0 {
				lo, hi := kept[0], kept[0]
				for _, k := range kept {
					lo, hi = min(lo, k), max(hi, k)
				}
				wantArray = new(big.Int).Sub(big.NewInt(hi), big.NewInt(lo)).Cmp(big.NewInt(nDim*denseSpanFactor)) < 0
			}
			if isArray := jt.rowByKey == nil; isArray != wantArray || jt.kept != len(kept) {
				t.Fatalf("trial %d join %d (%s): array=%v kept=%d, want array=%v kept=%d",
					trial, jt.slot, jn.Dim.Name, isArray, jt.kept, wantArray, len(kept))
			}
			if slices.Contains([]int{1, 2, 62, 63}, len(kept)) {
				exactKept++
			}
			if wantArray {
				arrays++
			} else {
				maps++
			}
			if len(kept) == 0 {
				empties++
			}
			if p > 0 {
				prev := tables[p-1]
				if prev.kept > jt.kept || prev.kept == jt.kept && prev.slot > jt.slot {
					t.Fatalf("trial %d: join %d (kept %d) probed before join %d (kept %d)",
						trial, prev.slot, prev.kept, jt.slot, jt.kept)
				}
			}
			if jt.slot != p {
				reordered++
			}
		}

		got, st, err := RunExact(q, groupCols, allKinds("val"), 3)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Which whole-morsel first probes (probeRange) the trial ran.
		if whole := pred.IsTrue() || st.MorselsFull > 0; whole && len(q.Joins) > 0 {
			if pred.IsTrue() {
				unfiltered++
			} else {
				zoneFull++
			}
			if from > 0 {
				offset++
			}
		}

		// Row-at-a-time oracle.
		type acc struct {
			sum        float64
			count      int64
			minv, maxv int64
		}
		oracle := map[GroupKey]*acc{}
	rows:
		for i := from; i < to; i++ {
			if !pred.IsTrue() && !pred.Matches(map[string]int64{"key": key[i], "a": a[i], "b": bcol[i]}) {
				continue
			}
			row := map[string]int64{"a": a[i], "b": bcol[i]}
			for p, j := range slots {
				idx := dimIdx[j][i]
				if idx >= nDim {
					continue rows
				}
				attr := fmt.Sprintf("attr%d", j)
				row[attr] = attrs[j][idx]
				if f := q.Joins[p].Filter; !f.IsTrue() && !f.Matches(map[string]int64{attr: row[attr], fmt.Sprintf("pos%d", j): int64(idx)}) {
					continue rows
				}
			}
			var k GroupKey
			for c, col := range groupCols {
				k[c] = row[col]
			}
			st, ok := oracle[k]
			if !ok {
				st = &acc{minv: val[i], maxv: val[i]}
				oracle[k] = st
			}
			st.sum += float64(val[i])
			st.count++
			if val[i] < st.minv {
				st.minv = val[i]
			}
			if val[i] > st.maxv {
				st.maxv = val[i]
			}
		}

		if got.NumGroups() != len(oracle) {
			t.Fatalf("trial %d: %d groups, oracle %d (pred=%v joins=%v group=%v)",
				trial, got.NumGroups(), len(oracle), pred, slots, groupCols)
		}
		for k, want := range oracle {
			if v, ok := got.Value(k, int(approx.Sum)); !ok || v != want.sum {
				t.Fatalf("trial %d group %v: sum %v, oracle %v", trial, k, v, want.sum)
			}
			if v, _ := got.Value(k, int(approx.Count)); v != float64(want.count) {
				t.Fatalf("trial %d group %v: count %v, oracle %d", trial, k, v, want.count)
			}
			if v, _ := got.Value(k, int(approx.Min)); v != float64(want.minv) {
				t.Fatalf("trial %d group %v: min %v, oracle %d", trial, k, v, want.minv)
			}
			if v, _ := got.Value(k, int(approx.Max)); v != float64(want.maxv) {
				t.Fatalf("trial %d group %v: max %v, oracle %d", trial, k, v, want.maxv)
			}
		}

		// The stratified sampler over the same query must see exactly the
		// qualifying rows (weights are exact even when values are sampled).
		schema := append(append([]string{}, groupCols...), "val")
		sam, _, err := RunStratifiedExprs(q, ExprsFromNames(schema), len(groupCols), 64, uint64(trial), 3, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sam.NumStrata() != len(oracle) {
			t.Fatalf("trial %d: sampler saw %d strata, oracle %d", trial, sam.NumStrata(), len(oracle))
		}
		var totalWeight float64
		var totalRows int64
		for k, want := range oracle {
			res := sam.Stratum(k)
			if res == nil {
				t.Fatalf("trial %d: stratum %v missing", trial, k)
			}
			if res.Weight() != float64(want.count) {
				t.Fatalf("trial %d stratum %v: weight %v, oracle %d", trial, k, res.Weight(), want.count)
			}
			totalWeight += res.Weight()
			totalRows += want.count
		}
		if totalWeight != float64(totalRows) {
			t.Fatalf("trial %d: total weight %v vs %d rows", trial, totalWeight, totalRows)
		}
	}
	t.Logf("%d array and %d map tables, %d empty, %d keeping 1, 2, 62 or 63 rows, %d probed out of join order",
		arrays, maps, empties, exactKept, reordered)
	if arrays == 0 || maps == 0 || empties == 0 || exactKept == 0 || reordered == 0 {
		t.Fatalf("trials built %d array and %d map tables, %d empty, %d keeping 1, 2, 62 or 63 rows, %d probed out of join order; want each > 0",
			arrays, maps, empties, exactKept, reordered)
	}
	t.Logf("whole-morsel first probes: %d unfiltered, %d zone-map full, %d from a nonzero row", unfiltered, zoneFull, offset)
	if unfiltered == 0 || zoneFull == 0 || offset == 0 {
		t.Fatalf("whole-morsel first probes: %d unfiltered, %d zone-map full, %d from a nonzero row; want each > 0",
			unfiltered, zoneFull, offset)
	}
}
