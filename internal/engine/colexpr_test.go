package engine

import (
	"testing"

	"laqy/internal/approx"
	"laqy/internal/sample"
)

func TestExprNameRoundtrip(t *testing.T) {
	cases := []ColumnExpr{
		Col("lo_revenue"),
		{Left: "a", Op: '*', Right: "b"},
		{Left: "a", Op: '-', Right: "b"},
		{Left: "a", Op: '+', RightLit: 7, RightIsLit: true},
		{Left: "a", Op: '*', RightLit: -3, RightIsLit: true},
	}
	for _, c := range cases {
		name := ExprName(c)
		got := ParseExprName(name)
		got.Name = "" // Name is set by ParseExprName; compare the operands
		want := c
		want.Name = ""
		if got != want {
			t.Errorf("roundtrip of %q: got %+v, want %+v", name, got, want)
		}
	}
	// Note: "a*-3" parses back with Op '*' and literal -3 because the
	// first operator wins and the remainder parses as an integer.
	if e := ParseExprName("plain_column"); e.Op != 0 || e.Left != "plain_column" {
		t.Errorf("plain name parsed as %+v", e)
	}
}

func TestGroupByComputedFactColumns(t *testing.T) {
	fact := buildFact(5000, 4, 10) // f_val = key*3
	q := &Query{Fact: fact}
	res, _, err := RunExact(q, []string{"f_group"},
		sums(ColumnExpr{Name: "f_val*f_key", Left: "f_val", Op: '*', Right: "f_key"}), 2)
	if err != nil {
		t.Fatal(err)
	}
	var want [4]float64
	for i := 0; i < 5000; i++ {
		want[i%4] += float64(int64(i*3) * int64(i))
	}
	for g := int64(0); g < 4; g++ {
		var key GroupKey
		key[0] = g
		got, ok := res.Value(key, 0)
		if !ok || got != want[g] {
			t.Fatalf("group %d: %v, want %v", g, got, want[g])
		}
	}
}

func TestGroupByComputedWithLiteral(t *testing.T) {
	fact := buildFact(1000, 2, 10)
	q := &Query{Fact: fact}
	res, _, err := RunExact(q, []string{"f_group"},
		sums(ColumnExpr{Name: "f_key+100", Left: "f_key", Op: '+', RightLit: 100, RightIsLit: true}), 2)
	if err != nil {
		t.Fatal(err)
	}
	var want [2]float64
	for i := 0; i < 1000; i++ {
		want[i%2] += float64(i + 100)
	}
	for g := int64(0); g < 2; g++ {
		var key GroupKey
		key[0] = g
		if got, _ := res.Value(key, 0); got != want[g] {
			t.Fatalf("group %d: %v, want %v", g, got, want[g])
		}
	}
}

func TestComputedWithDimensionOperand(t *testing.T) {
	// Expression mixing a fact column and a dimension column: f_val - d_attr.
	fact := buildFact(4000, 2, 20)
	dim := buildDim(20)
	q := &Query{
		Fact:  fact,
		Joins: []Join{{Dim: dim, FactKey: "f_dimfk", DimKey: "d_key"}},
	}
	res, _, err := RunExact(q, []string{"f_group"},
		sums(ColumnExpr{Name: "f_val-d_attr", Left: "f_val", Op: '-', Right: "d_attr"}), 3)
	if err != nil {
		t.Fatal(err)
	}
	var want [2]float64
	for i := 0; i < 4000; i++ {
		attr := int64((i % 20) % 4)
		want[i%2] += float64(int64(i*3) - attr)
	}
	for g := int64(0); g < 2; g++ {
		var key GroupKey
		key[0] = g
		if got, _ := res.Value(key, 0); got != want[g] {
			t.Fatalf("group %d: %v, want %v", g, got, want[g])
		}
	}
}

func TestStratifiedComputedCapture(t *testing.T) {
	// Sampling a computed column: estimates over the expression track the
	// exact computed sum.
	fact := buildFact(50000, 5, 10)
	q := &Query{Fact: fact}
	exprs := []ColumnExpr{
		Col("f_group"),
		{Name: "f_val*2", Left: "f_val", Op: '*', RightLit: 2, RightIsLit: true},
	}
	sam, _, err := runStratified(q, exprs, 1, 1000, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sam.Schema().Index("f_val*2") != 1 {
		t.Fatalf("schema = %v", sam.Schema())
	}
	var want float64
	for i := 0; i < 50000; i++ {
		want += float64(i * 3 * 2)
	}
	var got float64
	sam.ForEach(func(_ sample.StratumKey, r *sample.Reservoir) {
		got += approx.FromReservoir(r, 1, approx.Sum).Value
	})
	if approx.RelativeError(got, want) > 0.05 {
		t.Fatalf("computed estimate %v vs exact %v", got, want)
	}
}

func TestComputedExprErrors(t *testing.T) {
	fact := buildFact(100, 2, 10)
	q := &Query{Fact: fact}
	if _, _, err := RunExact(q, []string{"f_group"},
		sums(ColumnExpr{Name: "x", Left: "missing", Op: '*', Right: "f_val"}), 1); err == nil {
		t.Fatal("unknown left operand must error")
	}
	if _, _, err := RunExact(q, []string{"f_group"},
		sums(ColumnExpr{Name: "x", Left: "f_val", Op: '*', Right: "missing"}), 1); err == nil {
		t.Fatal("unknown right operand must error")
	}
	if _, _, err := RunExact(q, []string{"f_group"},
		sums(ColumnExpr{Name: "x", Left: "f_val", Op: '/', Right: "f_key"}), 1); err == nil {
		t.Fatal("unsupported operator must error")
	}
}

func TestExprsFromNamesMixed(t *testing.T) {
	exprs := ExprsFromNames([]string{"plain", "a*b", "c-12"})
	if exprs[0].Op != 0 || exprs[1].Op != '*' || exprs[2].Op != '-' || !exprs[2].RightIsLit {
		t.Fatalf("exprs = %+v", exprs)
	}
	// Schema built from exprs keeps the canonical names.
	schema := make(sample.Schema, len(exprs))
	for i, e := range exprs {
		schema[i] = e.Name
	}
	if schema[1] != "a*b" || schema[2] != "c-12" {
		t.Fatalf("schema = %v", schema)
	}
}
