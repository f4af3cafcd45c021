package core

import (
	"fmt"
	"slices"
	"strings"

	"laqy/internal/algebra"
	"laqy/internal/engine"
	"laqy/internal/sample"
	"laqy/internal/storage"
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

// MaintainAppend brings the store up to date after rows [fromRow,
// grown.NumRows()) were appended to one table, of which grown is the new
// version (no rows: nothing changes). It is the store's one response to an
// append, called once per batch, and it must not run twice over one batch
// (the caller serializes appends per table):
//
//   - entries that join the table as a dimension are removed: a dimension
//     append can change which fact rows join, which no Δ of fact rows
//     repairs;
//   - every other entry whose fact is the table is Δ-maintained (Maintain),
//     joined or not. Joins here are key–foreign-key joins with unique kept
//     dimension keys, and a fact append leaves every dimension unchanged,
//     so the rows the join gains are exactly the appended rows joined to
//     the same dimensions; their sample merged by Algorithm 3 is a fresh
//     sample of the grown join (in the sampling algebra, a GUS sample
//     joined with an unsampled relation is GUS with the same parameters).
//
// The join list of each entry is rebuilt from its input signature against
// tables (the catalog's lookup), so entries restored by a store load are
// maintained too; an input that no longer resolves is removed instead.
// Every Maintain pass takes the same seed, which it varies per entry by the
// entry's store position.
func (l *LazySampler) MaintainAppend(grown *storage.Table, fromRow int, tables func(string) (*storage.Table, error), seed uint64, workers int) (*MaintainResult, error) {
	res := &MaintainResult{RowsConsidered: int64(grown.NumRows() - fromRow)}
	if res.RowsConsidered == 0 {
		return res, nil
	}
	name := grown.Name
	l.store.RemoveWhere(func(m store.Meta) bool { return joinsAsDimension(m.Input, name) })
	var inputs []string
	for _, m := range l.store.List() {
		if inputFact(m.Meta.Input) == name && !slices.Contains(inputs, m.Meta.Input) {
			inputs = append(inputs, m.Meta.Input)
		}
	}
	for _, input := range inputs {
		q, err := inputQuery(input, grown, tables)
		if err != nil {
			l.store.RemoveWhere(func(m store.Meta) bool { return m.Input == input })
			continue
		}
		r, err := l.Maintain(q, fromRow, seed, workers)
		if err != nil {
			return nil, err
		}
		res.Maintained += r.Maintained
	}
	return res, nil
}

// inputQuery inverts InputSignature: the filterless query over fact (the
// signature's fact table) and the joins the signature names, each
// dimension resolved through tables. It fails when a piece does not parse
// or resolve, or when the result would not carry the same signature.
func inputQuery(signature string, fact *storage.Table, tables func(string) (*storage.Table, error)) (*engine.Query, error) {
	pieces := strings.Split(signature, "⋈")
	q := &engine.Query{Fact: fact}
	for _, piece := range pieces[1:] {
		dim, keys, ok := strings.Cut(strings.TrimSuffix(piece, ")"), "(")
		factKey, dimKey, ok2 := strings.Cut(keys, "=")
		if !ok || !ok2 {
			return nil, fmt.Errorf("core: input %q: bad join %q", signature, piece)
		}
		t, err := tables(dim)
		if err != nil {
			return nil, err
		}
		q.Joins = append(q.Joins, engine.Join{Dim: t, FactKey: factKey, DimKey: dimKey})
	}
	if got := InputSignature(q); got != signature {
		return nil, fmt.Errorf("core: input %q resolves to %q", signature, got)
	}
	return q, nil
}

// inputFact is the fact table an input signature names (its prefix).
func inputFact(signature string) string {
	fact, _, _ := strings.Cut(signature, "⋈")
	return fact
}

// joinsAsDimension reports whether an input signature joins the table as
// a dimension ("⋈name(").
func joinsAsDimension(signature, table string) bool {
	return strings.Contains(signature, "⋈"+table+"(")
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
