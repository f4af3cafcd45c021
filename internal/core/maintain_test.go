package core

import (
	"fmt"
	"math"
	"testing"

	"laqy/internal/algebra"
	"laqy/internal/approx"
	"laqy/internal/engine"
	"laqy/internal/storage"
	"laqy/internal/store"
)

// growFact builds a fact table like testFact with extra headroom rows
// appended after the first n (keys continue past n).
func growFact(n, extra, groups int) *storage.Table {
	total := n + extra
	key := make([]int64, total)
	grp := make([]int64, total)
	val := make([]int64, total)
	for i := 0; i < total; i++ {
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

func TestMaintainExtendsStoredSamples(t *testing.T) {
	// Build a sample over all rows of the initial table, then "append"
	// rows (same table name, more rows) and maintain.
	const initial, extra, groups = 20000, 10000, 5
	oldFact := testFact(initial, groups)
	l := New(store.New(0), 1)
	wide := request(oldFact, 0, initial+extra) // covers future keys too
	if _, err := l.Sample(wide); err != nil {
		t.Fatal(err)
	}

	grown := growFact(initial, extra, groups)
	res, err := l.Maintain(&engine.Query{Fact: grown}, initial, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Maintained != 1 {
		t.Fatalf("maintained %d samples, want 1", res.Maintained)
	}
	if res.RowsConsidered != extra {
		t.Fatalf("considered %d rows, want %d", res.RowsConsidered, extra)
	}

	// The stored sample now represents all initial+extra rows: a covering
	// query is answered offline with the grown weight.
	q := request(grown, 0, initial+extra)
	out, err := l.Sample(q)
	if err != nil {
		t.Fatal(err)
	}
	if out.Mode != ModeOffline {
		t.Fatalf("mode after maintenance = %v", out.Mode)
	}
	if out.Sample.TotalWeight() != initial+extra {
		t.Fatalf("maintained weight = %v, want %d", out.Sample.TotalWeight(), initial+extra)
	}
	// Estimates reflect the appended data.
	exact, _, err := engine.RunGroupBy(&engine.Query{Fact: grown}, []string{"f_group"}, "f_val", 2)
	if err != nil {
		t.Fatal(err)
	}
	for key, e := range approx.GroupEstimates(out.Sample, 2, approx.Sum) {
		want, _ := exact.Value(key, approx.Sum)
		if approx.RelativeError(e.Value, want) > 0.15 {
			t.Fatalf("group %v: %v vs exact %v", key, e.Value, want)
		}
	}
}

func TestMaintainRespectsPredicates(t *testing.T) {
	// A sample built under a narrow predicate only absorbs appended rows
	// matching that predicate.
	const initial, extra = 10000, 40000
	oldFact := testFact(initial, 4)
	l := New(store.New(0), 2)
	narrow := request(oldFact, 2000, 30000) // covers some future rows
	if _, err := l.Sample(narrow); err != nil {
		t.Fatal(err)
	}

	grown := growFact(initial, extra, 4)
	if _, err := l.Maintain(&engine.Query{Fact: grown}, initial, 5, 2); err != nil {
		t.Fatal(err)
	}
	// Qualifying rows: keys 2000..9999 initially, plus appended keys
	// 10000..30000 → total 28001.
	out, err := l.Sample(request(grown, 2000, 30000))
	if err != nil {
		t.Fatal(err)
	}
	if out.Mode != ModeOffline {
		t.Fatalf("mode = %v", out.Mode)
	}
	if math.Abs(out.Sample.TotalWeight()-28001) > 1e-6 {
		t.Fatalf("weight = %v, want 28001", out.Sample.TotalWeight())
	}
}

func TestMaintainIgnoresOtherInputs(t *testing.T) {
	factA := testFact(1000, 2)
	factB := storage.MustNewTable("other",
		&storage.Column{Name: "f_key", Kind: storage.KindInt64, Ints: []int64{1, 2, 3}},
		&storage.Column{Name: "f_group", Kind: storage.KindInt64, Ints: []int64{0, 1, 0}},
		&storage.Column{Name: "f_val", Kind: storage.KindInt64, Ints: []int64{1, 2, 3}},
	)
	l := New(store.New(0), 3)
	if _, err := l.Sample(request(factA, 0, 999)); err != nil {
		t.Fatal(err)
	}
	res, err := l.Maintain(&engine.Query{Fact: factB}, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Maintained != 0 {
		t.Fatalf("maintained %d samples of an unrelated input", res.Maintained)
	}
}

func TestMaintainValidation(t *testing.T) {
	l := New(store.New(0), 4)
	if _, err := l.Maintain(nil, 0, 1, 1); err == nil {
		t.Fatal("nil query must error")
	}
	fact := testFact(100, 2)
	if _, err := l.Maintain(&engine.Query{Fact: fact}, 200, 1, 1); err == nil {
		t.Fatal("fromRow beyond table must error")
	}
	// No-op maintenance (nothing appended).
	res, err := l.Maintain(&engine.Query{Fact: fact}, 100, 1, 1)
	if err != nil || res.Maintained != 0 || res.RowsConsidered != 0 {
		t.Fatalf("no-op maintain = %+v, %v", res, err)
	}
}

func TestInvalidate(t *testing.T) {
	fact := testFact(5000, 2)
	dim := storage.MustNewTable("dim",
		&storage.Column{Name: "d_key", Kind: storage.KindInt64, Ints: []int64{0, 1}},
	)
	l := New(store.New(0), 5)
	// Scan-level sample.
	if _, err := l.Sample(request(fact, 0, 999)); err != nil {
		t.Fatal(err)
	}
	// Join-level sample.
	jq := request(fact, 0, 999)
	jq.Query = &engine.Query{
		Fact:   fact,
		Filter: jq.Query.Filter,
		Joins:  []engine.Join{{Dim: dim, FactKey: "f_group", DimKey: "d_key"}},
	}
	if _, err := l.Sample(jq); err != nil {
		t.Fatal(err)
	}
	if l.Store().Len() != 2 {
		t.Fatalf("store len = %d", l.Store().Len())
	}
	tables := func(name string) (*storage.Table, error) {
		if name == "dim" {
			return dim, nil
		}
		return nil, fmt.Errorf("no table %q", name)
	}
	// An append to the fact keeps both: the join is maintained, not dropped.
	res, err := l.MaintainAppend(growFact(5000, 100, 2), fact.NumRows(), tables, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Maintained != 2 || l.Store().Len() != 2 {
		t.Fatalf("a fact append maintained %d samples, left %d", res.Maintained, l.Store().Len())
	}
	// An append to the dimension removes the join-level sample only.
	grownDim, err := storage.AppendColumns(dim, []*storage.Column{
		{Name: "d_key", Kind: storage.KindInt64, Ints: []int64{0, 1, 2}},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.MaintainAppend(grownDim, dim.NumRows(), tables, 1, 1); err != nil {
		t.Fatal(err)
	}
	if l.Store().Len() != 1 || l.Store().List()[0].Meta.Input != "fact" {
		t.Fatalf("store after a dimension append: %d entries", l.Store().Len())
	}
	// Invalidate removes everything touching the table.
	if n := l.Invalidate("fact"); n != 1 {
		t.Fatalf("Invalidate removed %d, want 1", n)
	}
	if l.Store().Len() != 0 {
		t.Fatal("store not empty")
	}
}

// TestInputQueryInvertsInputSignature: a stored input signature resolves
// back to its fact and joins, and a signature that does not parse or names
// an unknown table fails (MaintainAppend then removes its entries).
func TestInputQueryInvertsInputSignature(t *testing.T) {
	fact := testFact(10, 2)
	dim := storage.MustNewTable("dim", &storage.Column{Name: "d_key", Kind: storage.KindInt64, Ints: []int64{0, 1}})
	tables := func(name string) (*storage.Table, error) {
		if name == "dim" {
			return dim, nil
		}
		return nil, fmt.Errorf("no table %q", name)
	}
	sig := InputSignature(&engine.Query{Fact: fact, Joins: []engine.Join{
		{Dim: dim, FactKey: "f_group", DimKey: "d_key"},
		{Dim: dim, FactKey: "f_key", DimKey: "d_key"},
	}})
	q, err := inputQuery(sig, fact, tables)
	if err != nil || InputSignature(q) != sig || q.Joins[1].Dim != dim || q.Joins[1].FactKey != "f_key" {
		t.Fatalf("inputQuery(%q) = %+v, %v", sig, q, err)
	}
	for _, bad := range []string{"fact⋈dim", "fact⋈dim(f_group)", "fact⋈other(f_group=o_key)"} {
		if _, err := inputQuery(bad, fact, tables); err == nil {
			t.Errorf("inputQuery(%q) resolved", bad)
		}
	}
}

func TestInputMentionsTable(t *testing.T) {
	cases := []struct {
		sig, table string
		want       bool
	}{
		{"lineorder", "lineorder", true},
		{"lineorder⋈date(a=b)", "lineorder", true},
		{"lineorder⋈date(a=b)", "date", true},
		{"lineorder⋈date(a=b)", "supplier", false},
		{"lineorder", "line", false},
		{"lineorder2", "lineorder", false},
		{"fact⋈dim(x=y)⋈dim2(u=v)", "dim2", true},
	}
	for _, c := range cases {
		if got := inputMentionsTable(c.sig, c.table); got != c.want {
			t.Errorf("inputMentionsTable(%q, %q) = %v", c.sig, c.table, got)
		}
	}
}

func TestPushDownErrors(t *testing.T) {
	fact := testFact(10, 2)
	pred := algebra.NewPredicate().WithRange("nope", 0, 1)
	if _, err := pushDown(&engine.Query{Fact: fact}, pred); err == nil {
		t.Fatal("unknown column must error")
	}
}
