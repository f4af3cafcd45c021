// Package engine is the in-memory, vectorized, morsel-parallel analytical
// engine LAQy runs inside — the reproduction of the paper's Proteus
// substrate (Section 6).
//
// Queries are star joins over a fact table: the fact table is scanned in
// morsels by parallel workers, filtered with compiled vectorized
// predicates, probed against pre-built dimension join tables, and fed into
// a sink — an exact group-by aggregation or a stratified sampler (the
// paper's "reservoir aggregation function" inside a group-by, §6.2; zero QCS
// columns degenerate to a simple reservoir) — or folded in place by the
// fused exact aggregate. One morsel driver (scan.go) runs them all.
// Per-worker partial states merge at the end, mirroring sample collection
// after an exchange operator [14].
//
// The engine reports a per-phase wall-clock breakdown (scan, process,
// merge) because the paper's Figure 11 decomposes cumulative query time
// into exactly those phases.
package engine

import (
	"context"
	"fmt"

	"laqy/internal/algebra"
	"laqy/internal/governor"
	"laqy/internal/storage"
)

// Join describes one dimension join of a star query: fact.FactKey =
// dim.DimKey, with an optional filter over dimension columns applied at
// join-table build time. DimKey must be unique among the rows the filter
// keeps: a key that repeats there fails the run.
type Join struct {
	// Dim is the dimension table.
	Dim *storage.Table
	// FactKey is the fact-side join column name.
	FactKey string
	// DimKey is the dimension-side join column name.
	DimKey string
	// Filter restricts the dimension rows entering the join table
	// (e.g. s_region = 'AMERICA'); constraint values are dictionary codes
	// for string columns.
	Filter algebra.Predicate
}

// Query is a star query over a fact table: scan + filter + joins. What
// happens to the joined rows is decided by the sink passed to Run.
type Query struct {
	// Fact is the fact table.
	Fact *storage.Table
	// Filter is the predicate over fact columns, evaluated during the scan.
	Filter algebra.Predicate
	// Joins are the dimension joins. They are probed most selective first
	// (buildJoinTables); the joined rows are the same in any order.
	Joins []Join
	// ScanFrom skips fact rows before this index — used to scan only
	// appended rows during incremental sample maintenance.
	ScanFrom int
	// ScanTo, when > 0, bounds the scan to rows [ScanFrom, ScanTo). Zero
	// means the end of the fact table. Segment-scoped builds set both
	// bounds to one segment's row range.
	ScanTo int
	// Ctx, when non-nil, cancels the scan: workers stop at the next morsel
	// boundary and the run returns the context's error. A nil Ctx never
	// cancels.
	Ctx context.Context
	// Budget, when non-nil, charges transient sink memory (group-by hash
	// tables) against the query's soft memory budget; a denial aborts the
	// run with a typed *governor.MemoryBudgetError at the next morsel
	// boundary, failing only this query. The nil budget grants everything.
	Budget *governor.QueryBudget
	// Planner, when non-nil, rewrites the locally-planned segment sources
	// before the coordinator dispatches them — the distributed seam: a
	// shard planner wraps segments assigned to remote nodes in RPC-backed
	// sources (internal/shard) while keeping local geometry for planning
	// and admission. Nil keeps every segment in-process.
	Planner SegmentPlanner
	// DisableZoneMaps is the engine-internal oracle switch of the
	// equivalence suites and ablation benchmarks, read only by the morsel
	// plan (scan.go); no public option sets it. It turns off zone-map
	// verdicts, so every morsel is filtered per row. Verdicts are exact,
	// never statistical, so answers are bitwise identical either way.
	DisableZoneMaps bool
}

// scanBounds resolves the effective scan range [from, to): ScanFrom
// clamped to [0, rows] and ScanTo defaulted to the table end.
func (q *Query) scanBounds() (from, to int) {
	from, to = q.ScanFrom, q.Fact.NumRows()
	if from < 0 {
		from = 0
	}
	if q.ScanTo > 0 && q.ScanTo < to {
		to = q.ScanTo
	}
	if from > to {
		from = to
	}
	return from, to
}

// columnSource locates a column needed downstream: a fact column, whose
// vector a segment binds (bind), or a column of the j-th join's dimension
// table, whose whole-table vector every segment shares.
type columnSource struct {
	name    string
	vec     []int64
	joinIdx int // -1 for fact columns
}

// bind points a fact column at seg's vector of it; rows are then relative
// to the segment's first row. Dimension columns stay as they are.
func (c *columnSource) bind(seg *storage.Segment) {
	if c.joinIdx < 0 {
		c.vec = segmentColumn(seg, c.name)
	}
}

// segmentColumn is how a scan reads a segment's vector of a column: its
// filter, fact operands and fact join keys. It is a variable only as a test
// seam: the driver-failure suite hands the bodies a vector shorter than its
// segment, to prove an out-of-range read fails the query, not the process.
var segmentColumn = (*storage.Segment).Column

// resolveColumns maps each requested name to its source, searching the fact
// table first and then each dimension in join order. SSB-style prefixes
// (lo_, d_, s_, p_) make names unambiguous; the first match wins. Fact
// columns are left unbound: each segment of a scan binds its own vectors.
func (q *Query) resolveColumns(names []string) ([]columnSource, error) {
	out := make([]columnSource, len(names))
	for i, name := range names {
		if _, ok := q.Fact.Field(name); ok {
			out[i] = columnSource{name: name, joinIdx: -1}
			continue
		}
		found := false
		for j, jn := range q.Joins {
			if _, ok := jn.Dim.Field(name); ok {
				out[i] = columnSource{name: name, vec: jn.Dim.Column(name).Ints, joinIdx: j}
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("engine: column %q not found in fact table %q or its joined dimensions",
				name, q.Fact.Name)
		}
	}
	return out, nil
}
