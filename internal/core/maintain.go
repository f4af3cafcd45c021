package core

import (
	"fmt"
	"slices"
	"strings"

	"laqy/internal/algebra"
	"laqy/internal/engine"
	"laqy/internal/sample"
	"laqy/internal/store"
)

// MaintainResult reports one incremental maintenance pass.
type MaintainResult struct {
	// Maintained counts the samples extended with the appended rows.
	Maintained int
	// RowsConsidered is the number of appended rows scanned per sample.
	RowsConsidered int64
}

// Maintain incrementally extends every stored sample whose logical input
// matches q with the fact rows [fromRow, NumRows): for each matching
// entry, the appended rows are filtered by the entry's predicate, sampled
// into a fresh stratified sample, and merged with the stored one
// (Algorithm 3) — reservoir sampling's update-friendliness applied to base
// data growth, so offline samples stay fresh without rebuilds (the
// maintenance concern of the paper's Issue #3, cf. Birler et al. [4]).
//
// q supplies the query shape (fact table and join structure) for the
// input; its Filter is ignored — each entry's own predicate is applied.
// Entries over other inputs are untouched.
func (l *LazySampler) Maintain(q *engine.Query, fromRow int, seed uint64, workers int) (*MaintainResult, error) {
	if q == nil || q.Fact == nil {
		return nil, fmt.Errorf("core: nil maintenance query")
	}
	if fromRow < 0 || fromRow > q.Fact.NumRows() {
		return nil, fmt.Errorf("core: maintenance from row %d of %d", fromRow, q.Fact.NumRows())
	}
	input := InputSignature(q)
	res := &MaintainResult{RowsConsidered: int64(q.Fact.NumRows() - fromRow)}
	if fromRow == q.Fact.NumRows() {
		return res, nil
	}
	for i, m := range l.store.List() {
		if m.Meta.Input != input {
			continue
		}
		mq, err := entryQuery(q, m.Meta.Predicate)
		if err != nil {
			return nil, fmt.Errorf("core: maintaining %q: %w", input, err)
		}
		// Per-segment provenance: Δ-scan only the segments that grew or
		// changed since the sample last covered them, not the whole appended
		// suffix. A pre-segmentation entry has none and falls back to the
		// single table-wide high-water mark the caller supplied.
		var marks map[int]int
		if len(m.Meta.Segments) > 0 {
			marks = watermarkFrom(q.Fact, m.Meta.Segments)
		} else {
			mq.ScanFrom = fromRow
		}
		deltaSample, _, err := engine.RunStratifiedExprs(mq, engine.ExprsFromNames(m.Meta.Schema),
			m.Meta.QCSWidth, m.Meta.K, seed+uint64(i)*0x9E37, workers, marks)
		if err != nil {
			return nil, err
		}
		merged, err := sample.MergeStratified(m.Sample.Clone(), deltaSample, l.nextMergeGen())
		if err != nil {
			return nil, err
		}
		l.store.Update(m.Entry, merged, m.Meta.Predicate, segmentWatermarks(q.Fact))
		res.Maintained++
	}
	return res, nil
}

// Invalidate removes every stored sample whose input involves the named
// table (as fact or joined dimension) — the conservative response when a
// table changes in a way maintenance cannot repair (deletes, updates, or
// dimension changes).
func (l *LazySampler) Invalidate(table string) int {
	return l.store.RemoveWhere(func(m store.Meta) bool {
		return inputMentionsTable(m.Input, table)
	})
}

// inputMentionsTable reports whether an input signature references the
// table as its fact (prefix) or one of its join dimensions ("⋈name(").
func inputMentionsTable(signature, table string) bool {
	return signature == table ||
		strings.HasPrefix(signature, table+"⋈") ||
		strings.Contains(signature, "⋈"+table+"(")
}

// entryQuery is q's fact table and joins under pred alone: q's own filters
// are dropped and pred is pushed down in their place, so a sample built from
// it covers exactly what a store entry claiming pred covers.
func entryQuery(q *engine.Query, pred algebra.Predicate) (*engine.Query, error) {
	bare := &engine.Query{Fact: q.Fact, Joins: append([]engine.Join(nil), q.Joins...), Ctx: q.Ctx}
	for i := range bare.Joins {
		bare.Joins[i].Filter = algebra.NewPredicate()
	}
	return pushDown(bare, pred)
}

// pushDown clones q with each of pred's column constraints intersected into
// the filter of the table owning the column: the fact filter for fact
// columns, the owning dimension's join filter otherwise (the filter pushdown
// below the Δ-sampler of Figure 7, step 3).
func pushDown(q *engine.Query, pred algebra.Predicate) (*engine.Query, error) {
	out := &engine.Query{Fact: q.Fact, Filter: q.Filter, Joins: append([]engine.Join(nil), q.Joins...), Ctx: q.Ctx}
	for _, col := range pred.Columns() {
		set, _ := pred.Constraint(col)
		if q.Fact.Column(col) != nil {
			out.Filter = out.Filter.With(col, set)
			continue
		}
		i := slices.IndexFunc(out.Joins, func(j engine.Join) bool { return j.Dim.Column(col) != nil })
		if i < 0 {
			return nil, fmt.Errorf("core: predicate column %q not found in query tables", col)
		}
		out.Joins[i].Filter = out.Joins[i].Filter.With(col, set)
	}
	return out, nil
}

// InvalidateJoins removes samples whose input joins the named table with
// others, keeping pure scan-level samples over the table itself (those are
// maintainable via Maintain).
func (l *LazySampler) InvalidateJoins(table string) int {
	return l.store.RemoveWhere(func(m store.Meta) bool {
		return m.Input != table && inputMentionsTable(m.Input, table)
	})
}
