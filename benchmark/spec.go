package main

import (
	"fmt"
	"strings"
)

// spec is the structured form of one generated query. The benchmark renders
// it to the SQL text the program receives and hands the same spec to the
// naive oracle, so the two answers are computed from one description by two
// independent routes.
type spec struct {
	// table is the fact table; "" is lineorder. exact-ssb keeps a copy of it
	// in date order, and a join-free aggregate has the same answer on both.
	table string
	// conds are ANDed. The table a column lives in follows from its prefix
	// (lo_ fact, d_ date, s_ supplier, p_ part, c_ customer); every
	// dimension a spec mentions is joined on its foreign key.
	conds   []cond
	groupBy []string
	aggs    []agg
	// orderBy is appended verbatim (the oracle compares unordered).
	orderBy string
	approx  bool
	// k is the per-stratum reservoir capacity an approximate query asks for
	// (APPROX WITH K k); 0 leaves it to Config.DefaultK.
	k int
}

type condKind uint8

const (
	condIntRange condKind = iota // lo <= col <= hi (rendered = when lo == hi)
	condIntIn                    // col IN (ints...)
	condStrEq                    // col = 'strs[0]'
	condStrRange                 // col BETWEEN 'strs[0]' AND 'strs[1]'
	condStrIn                    // col IN ('strs'...)
)

type cond struct {
	col    string
	kind   condKind
	lo, hi int64
	ints   []int64
	strs   []string
}

func intRange(col string, lo, hi int64) cond {
	return cond{col: col, kind: condIntRange, lo: lo, hi: hi}
}
func intEq(col string, v int64) cond     { return intRange(col, v, v) }
func intIn(col string, vs ...int64) cond { return cond{col: col, kind: condIntIn, ints: vs} }
func strEq(col, v string) cond           { return cond{col: col, kind: condStrEq, strs: []string{v}} }
func strRange(col, lo, hi string) cond {
	return cond{col: col, kind: condStrRange, strs: []string{lo, hi}}
}
func strIn(col string, vs ...string) cond   { return cond{col: col, kind: condStrIn, strs: vs} }
func sum(a string) agg                      { return agg{a: a} }
func sumOp(a string, op byte, b string) agg { return agg{a: a, op: op, b: b} }

func (c cond) sql() string {
	quote := func(vs []string) string { return "'" + strings.Join(vs, "', '") + "'" }
	switch c.kind {
	case condIntRange:
		if c.lo == c.hi {
			return fmt.Sprintf("%s = %d", c.col, c.lo)
		}
		return fmt.Sprintf("%s BETWEEN %d AND %d", c.col, c.lo, c.hi)
	case condIntIn:
		parts := make([]string, len(c.ints))
		for i, v := range c.ints {
			parts[i] = fmt.Sprint(v)
		}
		return fmt.Sprintf("%s IN (%s)", c.col, strings.Join(parts, ", "))
	case condStrEq:
		return fmt.Sprintf("%s = %s", c.col, quote(c.strs))
	case condStrRange:
		return fmt.Sprintf("%s BETWEEN '%s' AND '%s'", c.col, c.strs[0], c.strs[1])
	default:
		return fmt.Sprintf("%s IN (%s)", c.col, quote(c.strs))
	}
}

// agg is SUM(a), SUM(a op b) with op '*' or '-', or COUNT(*) when count.
type agg struct {
	a, b  string
	op    byte
	count bool
}

func (a agg) sql() string {
	switch {
	case a.count:
		return "COUNT(*)"
	case a.op != 0:
		return fmt.Sprintf("SUM(%s%c%s)", a.a, a.op, a.b)
	default:
		return fmt.Sprintf("SUM(%s)", a.a)
	}
}

// dims maps a column prefix to its dimension table and join condition.
var dims = map[string]struct{ table, join, factKey, dimKey string }{
	"d_": {"date", "lo_orderdate = d_datekey", "lo_orderdate", "d_datekey"},
	"s_": {"supplier", "lo_suppkey = s_suppkey", "lo_suppkey", "s_suppkey"},
	"p_": {"part", "lo_partkey = p_partkey", "lo_partkey", "p_partkey"},
	"c_": {"customer", "lo_custkey = c_custkey", "lo_custkey", "c_custkey"},
}

// dimOrder fixes the FROM-list order so equal specs render equal text.
var dimOrder = []string{"d_", "s_", "p_", "c_"}

func prefixOf(col string) string { return col[:strings.IndexByte(col, '_')+1] }

// joined lists the dimension prefixes the spec touches, in dimOrder.
func (s *spec) joined() []string {
	used := map[string]bool{}
	note := func(col string) {
		if p := prefixOf(col); p != "lo_" {
			used[p] = true
		}
	}
	for _, c := range s.conds {
		note(c.col)
	}
	for _, g := range s.groupBy {
		note(g)
	}
	for _, a := range s.aggs {
		if !a.count {
			note(a.a)
			if a.op != 0 {
				note(a.b)
			}
		}
	}
	var out []string
	for _, p := range dimOrder {
		if used[p] {
			out = append(out, p)
		}
	}
	return out
}

// SQL renders the spec in the dialect of ssb_queries_test.go (comma joins,
// join conditions in WHERE, APPROX last).
func (s *spec) SQL() string {
	sel := append([]string{}, s.groupBy...)
	for _, a := range s.aggs {
		sel = append(sel, a.sql())
	}
	from := []string{"lineorder"}
	if s.table != "" {
		from[0] = s.table
	}
	var where []string
	for _, p := range s.joined() {
		from = append(from, dims[p].table)
		where = append(where, dims[p].join)
	}
	for _, c := range s.conds {
		where = append(where, c.sql())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "SELECT %s FROM %s", strings.Join(sel, ", "), strings.Join(from, ", "))
	if len(where) > 0 {
		fmt.Fprintf(&b, " WHERE %s", strings.Join(where, " AND "))
	}
	if len(s.groupBy) > 0 {
		fmt.Fprintf(&b, " GROUP BY %s", strings.Join(s.groupBy, ", "))
	}
	if s.orderBy != "" {
		b.WriteString(" " + s.orderBy)
	}
	if s.approx {
		b.WriteString(" APPROX")
		if s.k > 0 {
			fmt.Fprintf(&b, " WITH K %d", s.k)
		}
	}
	return b.String()
}

// exact returns the spec without APPROX: the query whose answer is the
// ground truth of the approximate one.
func (s *spec) exact() *spec {
	e := *s
	e.approx = false
	return &e
}

// keyWidth is the number of lo_intkey values the spec's range covers (the
// column is a permutation of 0..rows-1, so this is also the number of fact
// rows), or 0 when the spec has no such range.
func (s *spec) keyWidth() int64 {
	for _, c := range s.conds {
		if c.col == "lo_intkey" && c.kind == condIntRange {
			return c.hi - c.lo + 1
		}
	}
	return 0
}
