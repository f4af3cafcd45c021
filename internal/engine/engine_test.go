package engine

import (
	"fmt"
	"strings"
	"testing"

	"laqy/internal/algebra"
	"laqy/internal/approx"
	"laqy/internal/sample"
	"laqy/internal/storage"
)

// buildFact creates a small fact table:
//
//	f_key:   0..n-1 (unique)
//	f_group: key % groups
//	f_dimfk: key % dimRows (foreign key into the dimension)
//	f_val:   key * 3
func buildFact(n, groups, dimRows int) *storage.Table {
	key := make([]int64, n)
	grp := make([]int64, n)
	fk := make([]int64, n)
	val := make([]int64, n)
	for i := 0; i < n; i++ {
		key[i] = int64(i)
		grp[i] = int64(i % groups)
		fk[i] = int64(i % dimRows)
		val[i] = int64(i * 3)
	}
	return storage.MustNewTable("fact",
		&storage.Column{Name: "f_key", Kind: storage.KindInt64, Ints: key},
		&storage.Column{Name: "f_group", Kind: storage.KindInt64, Ints: grp},
		&storage.Column{Name: "f_dimfk", Kind: storage.KindInt64, Ints: fk},
		&storage.Column{Name: "f_val", Kind: storage.KindInt64, Ints: val},
	)
}

// buildDim creates a dimension with d_key 0..n-1, d_attr = key % 4.
func buildDim(n int) *storage.Table {
	key := make([]int64, n)
	attr := make([]int64, n)
	for i := 0; i < n; i++ {
		key[i] = int64(i)
		attr[i] = int64(i % 4)
	}
	return storage.MustNewTable("dim",
		&storage.Column{Name: "d_key", Kind: storage.KindInt64, Ints: key},
		&storage.Column{Name: "d_attr", Kind: storage.KindInt64, Ints: attr},
	)
}

func TestRunGroupByExact(t *testing.T) {
	const n, groups = 10000, 7
	fact := buildFact(n, groups, 10)
	q := &Query{Fact: fact}
	res, stats, err := RunExact(q, []string{"f_group"}, allKinds("f_val"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumGroups() != groups {
		t.Fatalf("NumGroups = %d, want %d", res.NumGroups(), groups)
	}
	if stats.RowsScanned != n || stats.RowsSelected != n {
		t.Fatalf("stats = %+v", stats)
	}
	// Oracle per group.
	wantSum := make([]float64, groups)
	wantCount := make([]int64, groups)
	for i := 0; i < n; i++ {
		g := i % groups
		wantSum[g] += float64(i * 3)
		wantCount[g]++
	}
	for g := 0; g < groups; g++ {
		var key GroupKey
		key[0] = int64(g)
		if got, ok := res.Value(key, int(approx.Sum)); !ok || got != wantSum[g] {
			t.Fatalf("group %d sum = %v, want %v", g, got, wantSum[g])
		}
		if got, _ := res.Value(key, int(approx.Count)); got != float64(wantCount[g]) {
			t.Fatalf("group %d count = %v", g, got)
		}
		if got, _ := res.Value(key, int(approx.Avg)); got != wantSum[g]/float64(wantCount[g]) {
			t.Fatalf("group %d avg = %v", g, got)
		}
	}
}

func TestRunGroupByWithFilter(t *testing.T) {
	fact := buildFact(1000, 4, 10)
	q := &Query{
		Fact:   fact,
		Filter: algebra.NewPredicate().WithRange("f_key", 100, 299),
	}
	res, stats, err := RunExact(q, []string{"f_group"}, sums(Col("f_val")), 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RowsSelected != 200 {
		t.Fatalf("RowsSelected = %d, want 200", stats.RowsSelected)
	}
	var total float64
	for _, k := range res.Keys() {
		v, _ := res.Value(k, 0)
		total += v
	}
	var want float64
	for i := 100; i <= 299; i++ {
		want += float64(i * 3)
	}
	if total != want {
		t.Fatalf("filtered sum = %v, want %v", total, want)
	}
}

func TestRunGroupByJoin(t *testing.T) {
	// Filter the dimension to d_attr == 1 (keys 1, 5, 9, ... of 20) and
	// group by the dimension attribute.
	fact := buildFact(8000, 4, 20)
	dim := buildDim(20)
	q := &Query{
		Fact: fact,
		Joins: []Join{{
			Dim:     dim,
			FactKey: "f_dimfk",
			DimKey:  "d_key",
			Filter:  algebra.NewPredicate().WithPoint("d_attr", 1),
		}},
	}
	res, stats, err := RunExact(q, []string{"d_attr"}, sums(Col("f_val")), 3)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle.
	var wantCount int64
	var wantSum float64
	for i := 0; i < 8000; i++ {
		if (i%20)%4 == 1 {
			wantCount++
			wantSum += float64(i * 3)
		}
	}
	if stats.RowsSelected != wantCount {
		t.Fatalf("RowsSelected = %d, want %d", stats.RowsSelected, wantCount)
	}
	if res.NumGroups() != 1 {
		t.Fatalf("NumGroups = %d, want 1", res.NumGroups())
	}
	var key GroupKey
	key[0] = 1
	if got, ok := res.Value(key, 0); !ok || got != wantSum {
		t.Fatalf("sum = %v, want %v", got, wantSum)
	}
}

func TestRunGroupByValidation(t *testing.T) {
	fact := buildFact(10, 2, 2)
	q := &Query{Fact: fact}
	// Zero group columns is a global aggregate over one implicit group.
	res, _, err := RunExact(q, nil, allKinds("f_val"), 1)
	if err != nil {
		t.Fatal(err)
	}
	var zero GroupKey
	if got, ok := res.Value(zero, int(approx.Count)); !ok || got != 10 {
		t.Fatalf("global count = %v", got)
	}
	if _, _, err := RunExact(q, []string{"a", "b", "c", "d", "e"}, sums(Col("f_val")), 1); err == nil {
		t.Fatal("too many group columns must error")
	}
	if _, _, err := RunExact(q, []string{"missing"}, sums(Col("f_val")), 1); err == nil {
		t.Fatal("unknown column must error")
	}
}

func TestRunStratified(t *testing.T) {
	const n, groups, k = 50000, 10, 100
	fact := buildFact(n, groups, 10)
	q := &Query{Fact: fact}
	sam, stats, err := RunStratifiedExprs(q, ExprsFromNames([]string{"f_group", "f_val"}), 1, k, 42, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sam.NumStrata() != groups {
		t.Fatalf("NumStrata = %d, want %d", sam.NumStrata(), groups)
	}
	if sam.TotalWeight() != n {
		t.Fatalf("TotalWeight = %v, want %d", sam.TotalWeight(), n)
	}
	if stats.Merge <= 0 {
		t.Fatal("merge time not recorded")
	}
	sam.ForEach(func(key sample.StratumKey, r *sample.Reservoir) {
		if r.Weight() != float64(n/groups) {
			t.Fatalf("stratum %v weight = %v, want %d", key, r.Weight(), n/groups)
		}
		if r.Len() != k {
			t.Fatalf("stratum %v len = %d, want %d", key, r.Len(), k)
		}
		// Tuples must belong to the stratum.
		for i := 0; i < r.Len(); i++ {
			tu := r.Tuple(i)
			if (tu[1]/3)%int64(groups) != key[0] {
				t.Fatalf("tuple %v in stratum %v", tu, key)
			}
		}
	})
}

func TestRunStratifiedEstimatesMatchExact(t *testing.T) {
	const n, groups, k = 100000, 5, 2000
	fact := buildFact(n, groups, 10)
	q := &Query{Fact: fact}
	sam, _, err := RunStratifiedExprs(q, ExprsFromNames([]string{"f_group", "f_val"}), 1, k, 7, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact, _, err := RunExact(q, []string{"f_group"}, sums(Col("f_val")), 4)
	if err != nil {
		t.Fatal(err)
	}
	sam.ForEach(func(key sample.StratumKey, r *sample.Reservoir) {
		got := approx.FromReservoir(r, 1, approx.Sum).Value
		want, ok := exact.Value(key, 0)
		if !ok {
			t.Fatalf("group %v missing from exact result", key)
		}
		if approx.RelativeError(got, want) > 0.10 {
			t.Fatalf("group %v estimate %.0f vs exact %.0f", key, got, want)
		}
	})
}

func TestRunStratifiedWithJoinQCS(t *testing.T) {
	// The Q2 shape: sampler after the join, stratifying on a dimension
	// attribute that only exists post-join.
	fact := buildFact(20000, 4, 20)
	dim := buildDim(20)
	q := &Query{
		Fact:  fact,
		Joins: []Join{{Dim: dim, FactKey: "f_dimfk", DimKey: "d_key"}},
	}
	sam, _, err := RunStratifiedExprs(q, ExprsFromNames([]string{"d_attr", "f_val", "f_key"}), 1, 50, 9, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sam.NumStrata() != 4 {
		t.Fatalf("NumStrata = %d, want 4 (d_attr values)", sam.NumStrata())
	}
	if sam.TotalWeight() != 20000 {
		t.Fatalf("TotalWeight = %v", sam.TotalWeight())
	}
}

func TestRunScan(t *testing.T) {
	fact := buildFact(10000, 4, 10)
	q := &Query{Fact: fact}
	sum, stats, err := RunScan(q, "f_val", 4)
	if err != nil {
		t.Fatal(err)
	}
	want := 3.0 * 9999 * 10000 / 2
	if sum != want {
		t.Fatalf("scan sum = %v, want %v", sum, want)
	}
	if stats.RowsScanned != 10000 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestRunScanWithUnknownFilterColumn(t *testing.T) {
	fact := buildFact(100, 4, 10)
	q := &Query{
		Fact:   fact,
		Filter: algebra.NewPredicate().WithRange("nope", 0, 1),
	}
	if _, _, err := RunScan(q, "f_val", 1); err == nil {
		t.Fatal("unknown filter column must error")
	}
}

func TestJoinErrorPaths(t *testing.T) {
	fact := buildFact(100, 4, 10)
	dim := buildDim(10)
	for _, q := range []*Query{
		{Fact: fact, Joins: []Join{{Dim: dim, FactKey: "missing", DimKey: "d_key"}}},
		{Fact: fact, Joins: []Join{{Dim: dim, FactKey: "f_dimfk", DimKey: "missing"}}},
		{Fact: fact, Joins: []Join{{Dim: dim, FactKey: "f_dimfk", DimKey: "d_key",
			Filter: algebra.NewPredicate().WithRange("missing", 0, 1)}}},
	} {
		if _, _, err := RunScan(q, "f_val", 1); err == nil {
			t.Fatal("bad join spec must error")
		}
	}
	// A key repeated among the kept dimension rows fails either table
	// representation, naming the key; a filter that keeps one row per key
	// joins.
	for _, stride := range []int64{1, 1_000_000_000} {
		dup := storage.MustNewTable("dup",
			&storage.Column{Name: "d_key", Kind: storage.KindInt64, Ints: []int64{0, 5 * stride, 5 * stride}},
			&storage.Column{Name: "d_attr", Kind: storage.KindInt64, Ints: []int64{0, 1, 2}},
		)
		q := &Query{Fact: fact, Joins: []Join{{Dim: dup, FactKey: "f_dimfk", DimKey: "d_key"}}}
		if _, _, err := RunScan(q, "f_val", 1); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("key %d repeats", 5*stride)) {
			t.Fatalf("stride %d: duplicate key: err = %v", stride, err)
		}
		q.Joins[0].Filter = algebra.NewPredicate().WithRange("d_attr", 0, 1)
		if _, _, err := RunScan(q, "f_val", 1); err != nil {
			t.Fatalf("stride %d: filtered duplicate: %v", stride, err)
		}
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Scan: 10, Process: 20, Merge: 5, Wall: 40, RowsScanned: 100, RowsSelected: 50, Workers: 2}
	b := Stats{Scan: 1, Process: 2, Merge: 3, Wall: 4, RowsScanned: 10, RowsSelected: 5, Workers: 4}
	a.Add(b)
	if a.Scan != 11 || a.Process != 22 || a.Merge != 8 || a.Wall != 44 ||
		a.RowsScanned != 110 || a.RowsSelected != 55 || a.Workers != 4 {
		t.Fatalf("Add result = %+v", a)
	}
}

func TestWorkerCountOne(t *testing.T) {
	fact := buildFact(5000, 3, 10)
	q := &Query{Fact: fact}
	sam, _, err := RunStratifiedExprs(q, ExprsFromNames([]string{"f_group", "f_val"}), 1, 10, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sam.TotalWeight() != 5000 {
		t.Fatalf("single worker weight = %v", sam.TotalWeight())
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers must be >= 1")
	}
}

func TestEmptyAndTinyTables(t *testing.T) {
	// Zero-row fact table: everything runs and returns empty results.
	empty := storage.MustNewTable("empty",
		&storage.Column{Name: "g", Kind: storage.KindInt64},
		&storage.Column{Name: "v", Kind: storage.KindInt64},
	)
	q := &Query{Fact: empty}
	res, stats, err := RunExact(q, []string{"g"}, sums(Col("v")), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumGroups() != 0 || stats.RowsScanned != 0 {
		t.Fatalf("empty table: groups=%d scanned=%d", res.NumGroups(), stats.RowsScanned)
	}
	sam, _, err := RunStratifiedExprs(q, ExprsFromNames([]string{"g", "v"}), 1, 10, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sam.NumStrata() != 0 || sam.TotalWeight() != 0 {
		t.Fatal("empty table produced strata")
	}
	// Single-row table.
	one := storage.MustNewTable("one",
		&storage.Column{Name: "g", Kind: storage.KindInt64, Ints: []int64{7}},
		&storage.Column{Name: "v", Kind: storage.KindInt64, Ints: []int64{42}},
	)
	res2, _, err := RunExact(&Query{Fact: one}, []string{"g"}, sums(Col("v")), 4)
	if err != nil {
		t.Fatal(err)
	}
	var key GroupKey
	key[0] = 7
	if got, ok := res2.Value(key, 0); !ok || got != 42 {
		t.Fatalf("single row sum = %v", got)
	}
	// More workers than morsels must not deadlock or double-count.
	res3, _, err := RunExact(&Query{Fact: one}, []string{"g"}, allKinds("v"), 16)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res3.Value(key, int(approx.Count)); got != 1 {
		t.Fatalf("over-parallel count = %v", got)
	}
}

func TestScanFromBeyondEnd(t *testing.T) {
	fact := buildFact(100, 2, 2)
	q := &Query{Fact: fact, ScanFrom: 100}
	_, stats, err := RunExact(q, []string{"f_group"}, sums(Col("f_val")), 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RowsScanned != 0 || stats.RowsSelected != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	q2 := &Query{Fact: fact, ScanFrom: 50}
	_, stats2, err := RunExact(q2, []string{"f_group"}, sums(Col("f_val")), 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.RowsScanned != 50 || stats2.RowsSelected != 50 {
		t.Fatalf("half scan stats = %+v", stats2)
	}
}
