package engine

import (
	"fmt"

	"laqy/internal/expr"
)

// joinTable is a built hash table for one dimension join: dimension key →
// dimension row index, containing only rows passing the dimension filter.
// Built once per query and shared read-only across scan workers.
type joinTable struct {
	factKeyVec []int64
	rowByKey   map[int64]int32
}

// buildJoinTables constructs the hash tables for all joins of q. Dimension
// tables are small relative to the fact table (SSB dimensions), so the
// build is single-threaded.
func buildJoinTables(q *Query) ([]joinTable, error) {
	out := make([]joinTable, len(q.Joins))
	for j, jn := range q.Joins {
		factKey := q.Fact.Column(jn.FactKey)
		if factKey == nil {
			return nil, fmt.Errorf("engine: join %d: fact key column %q missing", j, jn.FactKey)
		}
		dimKey := jn.Dim.Column(jn.DimKey)
		if dimKey == nil {
			return nil, fmt.Errorf("engine: join %d: dimension key column %q missing in %q",
				j, jn.DimKey, jn.Dim.Name)
		}
		filter, err := expr.Compile(jn.Filter, func(name string) []int64 {
			if c := jn.Dim.Column(name); c != nil {
				return c.Ints
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("engine: join %d on %q: %w", j, jn.Dim.Name, err)
		}
		m := make(map[int64]int32, jn.Dim.NumRows())
		for i, key := range dimKey.Ints {
			if filter.Trivial() || filter.Matches(i) {
				m[key] = int32(i)
			}
		}
		out[j] = joinTable{factKeyVec: factKey.Ints, rowByKey: m}
	}
	return out, nil
}

// probe resolves the join for the selected fact rows: for each index in
// sel, it looks up the fact key and writes the matching dimension row into
// dimRows. Rows without a match are dropped, compacting sel and all
// previously computed dimRows in place. Returns the compacted length.
//
// Kept out of line on purpose: inlined into the per-morsel pipeline body
// (a closure with many live values) the loop's indices spill to the stack
// and join-heavy scans run ~4% slower; compiled on its own it keeps them
// in registers, and one call per join per morsel costs nothing.
//
//laqy:hot per-chunk join probe on the scan path
//go:noinline
func (jt *joinTable) probe(sel []int32, dimRows [][]int32, j int) int {
	out := 0
	for i, idx := range sel { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
		row, ok := jt.rowByKey[jt.factKeyVec[idx]]
		if !ok {
			continue
		}
		sel[out] = idx
		for p := 0; p < j; p++ {
			dimRows[p][out] = dimRows[p][i]
		}
		dimRows[j][out] = row
		out++
	}
	return out
}
