package core

import (
	"fmt"
	"math"
	"testing"

	"laqy/internal/algebra"
	"laqy/internal/approx"
	"laqy/internal/engine"
	"laqy/internal/obs"
	"laqy/internal/sample"
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

// observedSampler is a sampler whose store counts its Updates.
func observedSampler(seed uint64) (*LazySampler, *obs.Counter) {
	st := store.New(0)
	reg := obs.NewRegistry()
	st.SetObs(reg)
	return New(st, seed), reg.Counter(obs.MStoreUpdates)
}

func TestMaintainExtendsStoredSamples(t *testing.T) {
	// Build a sample over all rows of the initial table, then "append"
	// rows (same table name, more rows) and maintain.
	const initial, extra, groups = 20000, 10000, 5
	oldFact := testFact(initial, groups)
	l, updates := observedSampler(1)
	wide := request(oldFact, 0, initial+extra) // covers future keys too
	if _, err := l.Sample(wide); err != nil {
		t.Fatal(err)
	}

	grown := growFact(initial, extra, groups)
	if err := l.MaintainAppend(grown, initial, nil, 9, 2); err != nil {
		t.Fatal(err)
	}
	if updates.Value() != 1 {
		t.Fatalf("maintained %d samples, want 1", updates.Value())
	}
	// The entry now covers every grown row, and absorbed only the appended
	// ones: its weight is initial+extra (checked below), not that plus a
	// rescan of the first initial rows.
	if got := l.Store().List()[0].Meta.Absorbed; got != initial+extra {
		t.Fatalf("absorbed rows after maintenance = %d, want %d", got, initial+extra)
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
	exact, _, err := engine.RunExact(&engine.Query{Fact: grown}, []string{"f_group"}, []engine.Agg{{Expr: engine.Col("f_val"), Kind: approx.Sum}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	out.Sample.ForEach(func(key sample.StratumKey, r *sample.Reservoir) {
		got := approx.FromReservoir(r, 2, approx.Sum).Value
		if want, _ := exact.Value(key, 0); approx.RelativeError(got, want) > 0.15 {
			t.Fatalf("group %v: %v vs exact %v", key, got, want)
		}
	})
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
	if err := l.MaintainAppend(grown, initial, nil, 5, 2); err != nil {
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
	l, updates := observedSampler(3)
	if _, err := l.Sample(request(factA, 0, 999)); err != nil {
		t.Fatal(err)
	}
	if err := l.MaintainAppend(factB, 0, nil, 1, 1); err != nil {
		t.Fatal(err)
	}
	if updates.Value() != 0 || l.Store().List()[0].Sample.TotalWeight() != 1000 {
		t.Fatalf("maintained %d samples of an unrelated input", updates.Value())
	}
}

func TestMaintainValidation(t *testing.T) {
	l, updates := observedSampler(4)
	fact := testFact(100, 2)
	if _, err := l.Sample(request(fact, 0, 99)); err != nil {
		t.Fatal(err)
	}
	// No-op maintenance (nothing appended).
	if err := l.MaintainAppend(fact, 100, nil, 1, 1); err != nil || updates.Value() != 0 {
		t.Fatalf("no-op maintain: %d updates, %v", updates.Value(), err)
	}
}

// TestMaintainAppendByTableRole: an append to a fact table maintains its
// scan-level and join-level samples alike, and an append to a dimension
// removes the samples that join it, leaving the scan-level one.
func TestMaintainAppendByTableRole(t *testing.T) {
	fact := testFact(5000, 2)
	dim := storage.MustNewTable("dim",
		&storage.Column{Name: "d_key", Kind: storage.KindInt64, Ints: []int64{0, 1}},
	)
	l, updates := observedSampler(5)
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
	if err := l.MaintainAppend(growFact(5000, 100, 2), fact.NumRows(), tables, 1, 1); err != nil {
		t.Fatal(err)
	}
	if updates.Value() != 2 || l.Store().Len() != 2 {
		t.Fatalf("a fact append maintained %d samples, left %d", updates.Value(), l.Store().Len())
	}
	// An append to the dimension removes the join-level sample only.
	grownDim, err := storage.AppendColumns(dim, []*storage.Column{
		{Name: "d_key", Kind: storage.KindInt64, Ints: []int64{0, 1, 2}},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.MaintainAppend(grownDim, dim.NumRows(), tables, 1, 1); err != nil {
		t.Fatal(err)
	}
	if l.Store().Len() != 1 || l.Store().List()[0].Meta.Input != "fact" {
		t.Fatalf("store after a dimension append: %d entries", l.Store().Len())
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

// TestInputMentionsTable: an input signature names a table as its fact
// (inputFact, which MaintainAppend matches against the grown table) or as a
// joined dimension (joinsAsDimension, whose entries an append to that table
// removes) — never by a name prefix.
func TestInputMentionsTable(t *testing.T) {
	cases := []struct {
		sig, table   string
		fact, asJoin bool
	}{
		{"lineorder", "lineorder", true, false},
		{"lineorder⋈date(a=b)", "lineorder", true, false},
		{"lineorder⋈date(a=b)", "date", false, true},
		{"lineorder⋈date(a=b)", "supplier", false, false},
		{"lineorder", "line", false, false},
		{"lineorder2", "lineorder", false, false},
		{"fact⋈dim(x=y)⋈dim2(u=v)", "dim2", false, true},
		{"fact⋈dim2(u=v)", "dim", false, false},
	}
	for _, c := range cases {
		if got := inputFact(c.sig) == c.table; got != c.fact {
			t.Errorf("inputFact(%q) = %q, fact %q: %v", c.sig, inputFact(c.sig), c.table, got)
		}
		if got := joinsAsDimension(c.sig, c.table); got != c.asJoin {
			t.Errorf("joinsAsDimension(%q, %q) = %v", c.sig, c.table, got)
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
