package sql

import (
	"fmt"
	"math"
	"strings"

	"laqy/internal/algebra"
	"laqy/internal/approx"
	"laqy/internal/engine"
	"laqy/internal/sample"
	"laqy/internal/storage"
)

// AggSpec is one aggregate output of a plan.
type AggSpec struct {
	Kind approx.AggKind
	// Column is the aggregated column ("" for COUNT(*), which aggregates
	// over the first captured value column).
	Column string
	// Label is the output column label (AS alias, or "" for the default
	// rendering).
	Label string
}

// Plan is an executable query plan: the engine star query plus the output
// description and — for approximate plans — the logical sampler definition
// LAQy's lazy sampler consumes (predicate, captured schema, QCS width, k).
type Plan struct {
	// Query is the engine query (fact scan + joins + pushed-down filters).
	Query *engine.Query
	// GroupBy lists the grouping columns (the QCS of an approximate plan).
	GroupBy []string
	// Aggs lists the aggregate outputs in select-list order.
	Aggs []AggSpec
	// Predicate is the full matching predicate (fact + dimension
	// constraints with dictionary-encoded string values).
	Predicate algebra.Predicate
	// Schema lists the columns an approximate plan's sample captures: QCS
	// first, then aggregated columns and fact-side predicate columns.
	Schema sample.Schema
	// Approx requests sampling-based execution.
	Approx bool
	// K is the per-stratum reservoir capacity (0 = caller default).
	K int
	// ErrorBound is the requested relative error bound as a fraction
	// (0 = none); Confidence is its confidence level (0 = 0.95 default).
	ErrorBound, Confidence float64
	// Having lists the group filters applied after aggregation.
	Having []PlanHaving
	// OrderBy lists result ordering keys; Limit caps the row count (0 =
	// unlimited).
	OrderBy []PlanOrder
	Limit   int
	// Dicts maps dictionary-encoded column names to their dictionaries,
	// for decoding group keys in results.
	Dicts map[string]*storage.Dict
	// Explain requests the plan description instead of execution;
	// ExplainAnalyze requests execution plus the annotated trace.
	Explain, ExplainAnalyze bool
}

// PlanHaving is one resolved HAVING conjunct over a select-list aggregate.
type PlanHaving struct {
	// AggIdx indexes Plan.Aggs.
	AggIdx int
	// Cmp compares the aggregate against Value.
	Cmp   CompareOp
	Value int64
}

// PlanOrder is one resolved ORDER BY key: exactly one of GroupIdx/AggIdx
// is >= 0.
type PlanOrder struct {
	// GroupIdx indexes Plan.GroupBy (-1 when ordering by an aggregate).
	GroupIdx int
	// AggIdx indexes Plan.Aggs (-1 when ordering by a grouping column).
	AggIdx int
	// Desc orders descending.
	Desc bool
}

// QCSWidth returns the number of stratification columns.
func (p *Plan) QCSWidth() int { return len(p.GroupBy) }

// PlanStatement binds a parsed statement to tables from the catalog and
// produces an executable plan.
//
// Planning rules (mirroring the paper's setting):
//   - the largest FROM table is the fact table; every other table must be
//     reachable through an equality join condition with a fact column
//     (star schema);
//   - literal predicates are pushed to the owning table: fact predicates
//     into the scan filter, dimension predicates into the join build;
//   - for APPROX plans, the sampler is placed after the joins (or directly
//     on the scan when there are none), stratified on the GROUP BY
//     columns, capturing the aggregate and fact predicate columns so the
//     sample store can tighten and extend the sample later.
func PlanStatement(stmt *Statement, catalog *storage.Catalog) (*Plan, error) {
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("sql: no tables")
	}
	tables := make([]*storage.Table, 0, len(stmt.From)+len(stmt.Joins))
	for _, name := range stmt.From {
		t, err := catalog.Table(name)
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	for _, j := range stmt.Joins {
		t, err := catalog.Table(j.Table)
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}

	// The fact table is the largest relation (the star-schema heuristic).
	fact := tables[0]
	for _, t := range tables[1:] {
		if t.NumRows() > fact.NumRows() {
			fact = t
		}
	}

	owner := func(col string) *storage.Table {
		for _, t := range tables {
			if _, ok := t.Field(col); ok {
				return t
			}
		}
		return nil
	}

	q := &engine.Query{Fact: fact, Filter: algebra.NewPredicate()}
	pred := algebra.NewPredicate()
	joinByDim := map[string]int{} // dim table name -> index in q.Joins
	dicts := map[string]*storage.Dict{}

	addJoin := func(left, right string) error {
		lt, rt := owner(left), owner(right)
		if lt == nil || rt == nil {
			return fmt.Errorf("sql: unknown column in join condition %s = %s", left, right)
		}
		factCol, dimCol, dim := left, right, rt
		if rt == fact {
			factCol, dimCol, dim = right, left, lt
		} else if lt != fact {
			return fmt.Errorf("sql: join %s = %s does not touch the fact table %q (only star joins are supported)",
				left, right, fact.Name)
		}
		if dim == fact {
			return fmt.Errorf("sql: self-join on %q is not supported", fact.Name)
		}
		if _, dup := joinByDim[dim.Name]; dup {
			return fmt.Errorf("sql: duplicate join with table %q", dim.Name)
		}
		joinByDim[dim.Name] = len(q.Joins)
		q.Joins = append(q.Joins, engine.Join{
			Dim:     dim,
			FactKey: factCol,
			DimKey:  dimCol,
			Filter:  algebra.NewPredicate(),
		})
		return nil
	}

	for _, j := range stmt.Joins {
		if err := addJoin(j.Left, j.Right); err != nil {
			return nil, err
		}
	}

	// First pass: join conditions from WHERE; second pass: literal
	// predicates (so dimension filters find their join entry even when
	// written before the join condition).
	var literals []Condition
	for _, c := range stmt.Where {
		if c.RightColumn != "" {
			if err := addJoin(c.Column, c.RightColumn); err != nil {
				return nil, err
			}
		} else {
			literals = append(literals, c)
		}
	}
	for _, c := range literals {
		t := owner(c.Column)
		if t == nil {
			return nil, fmt.Errorf("sql: unknown column %q in predicate", c.Column)
		}
		set, err := conditionSet(c, t)
		if err != nil {
			return nil, err
		}
		if f, _ := t.Field(c.Column); f.Kind == storage.KindString {
			dicts[c.Column] = f.Dict
		}
		pred = pred.With(c.Column, set)
		if t == fact {
			q.Filter = q.Filter.With(c.Column, set)
		} else {
			idx, ok := joinByDim[t.Name]
			if !ok {
				return nil, fmt.Errorf("sql: predicate on %q.%s but table is not joined to the fact table",
					t.Name, c.Column)
			}
			q.Joins[idx].Filter = q.Joins[idx].Filter.With(c.Column, set)
		}
	}

	// Every FROM table besides the fact must be joined.
	for _, t := range tables {
		if t == fact {
			continue
		}
		if _, ok := joinByDim[t.Name]; !ok {
			return nil, fmt.Errorf("sql: table %q has no join condition with the fact table", t.Name)
		}
	}

	plan := &Plan{
		Query:          q,
		Predicate:      pred,
		Approx:         stmt.Approx,
		K:              stmt.ApproxK,
		ErrorBound:     stmt.ApproxError,
		Confidence:     stmt.ApproxConfidence,
		Dicts:          dicts,
		Explain:        stmt.Explain,
		ExplainAnalyze: stmt.ExplainAnalyze,
	}

	// Validate the select list against GROUP BY and collect aggregates.
	inGroupBy := map[string]bool{}
	for _, g := range stmt.GroupBy {
		t := owner(g)
		if t == nil {
			return nil, fmt.Errorf("sql: unknown GROUP BY column %q", g)
		}
		if f, _ := t.Field(g); f.Kind == storage.KindString {
			dicts[g] = f.Dict
		}
		inGroupBy[g] = true
		plan.GroupBy = append(plan.GroupBy, g)
	}
	if len(plan.GroupBy) > sample.MaxQCS {
		return nil, fmt.Errorf("sql: %d GROUP BY columns (max %d)", len(plan.GroupBy), sample.MaxQCS)
	}
	for _, item := range stmt.Select {
		if !item.IsAgg {
			if !inGroupBy[item.Column] {
				return nil, fmt.Errorf("sql: column %q must appear in GROUP BY", item.Column)
			}
			continue
		}
		if item.Column != "" && owner(item.Column) == nil {
			return nil, fmt.Errorf("sql: unknown aggregate column %q", item.Column)
		}
		if item.Op != 0 {
			if item.Column == "" {
				return nil, fmt.Errorf("sql: COUNT(*) cannot take an expression")
			}
			if !item.RightIsLit && owner(item.RightColumn) == nil {
				return nil, fmt.Errorf("sql: unknown aggregate column %q", item.RightColumn)
			}
			for _, c := range []string{item.Column, item.RightColumn} {
				if c == "" {
					continue
				}
				if t := owner(c); t != nil {
					if f, _ := t.Field(c); f.Kind == storage.KindString {
						return nil, fmt.Errorf("sql: cannot aggregate arithmetic over string column %q", c)
					}
				}
			}
		}
		plan.Aggs = append(plan.Aggs, AggSpec{Kind: item.Agg, Column: renderAggArg(item), Label: item.Alias})
	}
	if len(plan.Aggs) == 0 {
		return nil, fmt.Errorf("sql: query has no aggregates (only aggregation queries are supported)")
	}
	plan.Limit = stmt.Limit
	for _, h := range stmt.Having {
		rendered := renderAggArg(SelectItem{
			Column: h.Column, Op: h.Op,
			RightColumn: h.RightColumn, RightLit: h.RightLit, RightIsLit: h.RightIsLit,
		})
		idx := -1
		for i, a := range plan.Aggs {
			if a.Kind == h.Agg && a.Column == rendered {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("sql: HAVING aggregate %v(%s) must appear in the select list", h.Agg, rendered)
		}
		plan.Having = append(plan.Having, PlanHaving{AggIdx: idx, Cmp: h.Cmp, Value: h.Value})
	}
	for _, o := range stmt.OrderBy {
		resolved := PlanOrder{GroupIdx: -1, AggIdx: -1, Desc: o.Desc}
		if o.IsAgg {
			rendered := renderAggArg(SelectItem{
				Column: o.Column, Op: o.Op,
				RightColumn: o.RightColumn, RightLit: o.RightLit, RightIsLit: o.RightIsLit,
			})
			for i, a := range plan.Aggs {
				if a.Kind == o.Agg && a.Column == rendered {
					resolved.AggIdx = i
					break
				}
			}
			if resolved.AggIdx < 0 {
				return nil, fmt.Errorf("sql: ORDER BY aggregate %v(%s) must appear in the select list", o.Agg, rendered)
			}
		} else {
			for i, g := range plan.GroupBy {
				if g == o.Column {
					resolved.GroupIdx = i
					break
				}
			}
			if resolved.GroupIdx < 0 {
				return nil, fmt.Errorf("sql: ORDER BY column %q must appear in GROUP BY", o.Column)
			}
		}
		plan.OrderBy = append(plan.OrderBy, resolved)
	}

	// Captured sample schema: QCS, then aggregate columns, then fact-side
	// predicate columns (needed for future tightening).
	plan.Schema = append(plan.Schema, plan.GroupBy...)
	seen := map[string]bool{}
	for _, c := range plan.GroupBy {
		seen[c] = true
	}
	for _, a := range plan.Aggs {
		if a.Column != "" && !seen[a.Column] {
			seen[a.Column] = true
			plan.Schema = append(plan.Schema, a.Column)
		}
	}
	for _, c := range pred.Columns() {
		if _, ok := fact.Field(c); !seen[c] && ok {
			seen[c] = true
			plan.Schema = append(plan.Schema, c)
		}
	}
	// COUNT(*) needs at least one value column to ride on.
	if len(plan.Schema) == len(plan.GroupBy) {
		if len(fact.Schema()) == 0 {
			return nil, fmt.Errorf("sql: fact table %q has no columns", fact.Name)
		}
		plan.Schema = append(plan.Schema, fact.Schema()[0].Name)
	}
	return plan, nil
}

// conditionSet converts a literal condition into an interval set, encoding
// string literals through the owning column's dictionary. A string value
// absent from the dictionary yields the empty set (the predicate matches
// nothing) for equality, consistent with exact evaluation.
func conditionSet(c Condition, t *storage.Table) (algebra.Set, error) {
	col, _ := t.Field(c.Column)
	encode := func(l Literal) (int64, bool, error) {
		if !l.IsString {
			if col.Kind == storage.KindString {
				return 0, false, fmt.Errorf("sql: comparing string column %q with a number", c.Column)
			}
			return l.Int, true, nil
		}
		if col.Kind != storage.KindString {
			return 0, false, fmt.Errorf("sql: comparing numeric column %q with a string", c.Column)
		}
		code, ok := col.Dict.Code(l.Str)
		return code, ok, nil
	}
	switch {
	case c.IsBetween:
		lo, okLo, err := encode(c.Lo)
		if err != nil {
			return algebra.Set{}, err
		}
		hi, okHi, err := encode(c.Hi)
		if err != nil {
			return algebra.Set{}, err
		}
		if !okLo || !okHi {
			return algebra.Set{}, fmt.Errorf("sql: BETWEEN bound not in dictionary of %q", c.Column)
		}
		return algebra.SetOf(algebra.Interval{Lo: lo, Hi: hi}), nil

	case c.In != nil:
		out := algebra.Set{}
		for _, l := range c.In {
			v, ok, err := encode(l)
			if err != nil {
				return algebra.Set{}, err
			}
			if ok {
				out = out.Union(algebra.SetOf(algebra.Point(v)))
			}
		}
		return out, nil

	default:
		v, ok, err := encode(c.Lit)
		if err != nil {
			return algebra.Set{}, err
		}
		if !ok {
			// Unknown dictionary value: equality matches nothing; ordered
			// comparisons with unknown strings are rejected.
			if c.Op == OpEq {
				return algebra.Set{}, nil
			}
			return algebra.Set{}, fmt.Errorf("sql: string %q not in dictionary of %q", c.Lit.Str, c.Column)
		}
		switch c.Op {
		case OpEq:
			return algebra.SetOf(algebra.Point(v)), nil
		case OpLt:
			if v == math.MinInt64 {
				return algebra.Set{}, nil
			}
			return algebra.SetOf(algebra.Interval{Lo: math.MinInt64, Hi: v - 1}), nil
		case OpLe:
			return algebra.SetOf(algebra.Interval{Lo: math.MinInt64, Hi: v}), nil
		case OpGt:
			if v == math.MaxInt64 {
				return algebra.Set{}, nil
			}
			return algebra.SetOf(algebra.Interval{Lo: v + 1, Hi: math.MaxInt64}), nil
		default: // OpGe
			return algebra.SetOf(algebra.Interval{Lo: v, Hi: math.MaxInt64}), nil
		}
	}
}

// renderAggArg renders an aggregate argument to its canonical captured-
// column name: plain columns keep their name; expressions render as
// "left<op>right", matching engine.ExprName so the engine can
// re-materialize them from sample schemas.
func renderAggArg(item SelectItem) string {
	if item.Op == 0 {
		return item.Column
	}
	e := engine.ColumnExpr{Left: item.Column, Op: item.Op,
		Right: item.RightColumn, RightLit: item.RightLit, RightIsLit: item.RightIsLit}
	return engine.ExprName(e)
}

// Describe renders a human-readable plan tree: the scan, join, and (for
// approximate plans) logical sampler placement with its QCS/QVS split —
// the information LAQy's store keys reuse decisions on.
func (p *Plan) Describe() string {
	var b strings.Builder
	if p.Approx {
		fmt.Fprintf(&b, "approx aggregate")
		if p.K > 0 {
			fmt.Fprintf(&b, " (k=%d)", p.K)
		}
		if p.ErrorBound > 0 {
			conf := p.Confidence
			if conf == 0 {
				conf = 0.95
			}
			fmt.Fprintf(&b, " (error ≤ %.3g%% @ %.3g%%)", p.ErrorBound*100, conf*100)
		}
	} else {
		fmt.Fprintf(&b, "exact aggregate")
	}
	for _, a := range p.Aggs {
		if a.Column == "" {
			b.WriteString(" COUNT(*)")
		} else {
			fmt.Fprintf(&b, " %v(%s)", a.Kind, a.Column)
		}
	}
	b.WriteString("\n")
	if len(p.GroupBy) > 0 {
		fmt.Fprintf(&b, "  group by (QCS): %s\n", strings.Join(p.GroupBy, ", "))
	}
	if p.Approx {
		fmt.Fprintf(&b, "  sampler: stratified, placed after joins; captures %s\n",
			strings.Join(p.Schema, ", "))
		fmt.Fprintf(&b, "  matching predicate: %v\n", p.Predicate)
	}
	for i := len(p.Query.Joins) - 1; i >= 0; i-- {
		j := p.Query.Joins[i]
		fmt.Fprintf(&b, "  hash join %s.%s = %s", p.Query.Fact.Name, j.FactKey, j.DimKey)
		if !j.Filter.IsTrue() {
			fmt.Fprintf(&b, " [build filter: %v]", j.Filter)
		}
		fmt.Fprintf(&b, " (build %s: %d rows)\n", j.Dim.Name, j.Dim.NumRows())
	}
	fmt.Fprintf(&b, "  scan %s: %d rows", p.Query.Fact.Name, p.Query.Fact.NumRows())
	if !p.Query.Filter.IsTrue() {
		fmt.Fprintf(&b, " [filter: %v]", p.Query.Filter)
	}
	b.WriteString("\n")
	return b.String()
}
