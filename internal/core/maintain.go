package core

import (
	"fmt"
	"slices"
	"strings"

	"laqy/internal/algebra"
	"laqy/internal/engine"
	"laqy/internal/obs"
	"laqy/internal/sample"
	"laqy/internal/storage"
	"laqy/internal/store"
)

// extend is the one step that grows a stored sample (Algorithm 3): it
// Δ-samples base (from its ScanFrom) under deltaPred — m's predicate over
// the piece of input m lacks — through buildSample, merges the Δ with m's
// sample, and publishes the merge as m's entry under pred, having absorbed
// every row of base's fact. A partial reuse extends an entry over a
// missing predicate range and an append over the rows after those the
// entry absorbed; in the sampling algebra both are a union of samples
// over disjoint inputs. The merge writes a new sealed sample and leaves m's
// as it was: readers holding the old snapshot stay valid, and of two racing
// extensions of one entry the later Update wins.
//
// It returns the merged sample as a Result carrying the Δ build's Stats and
// the merge's MergeTime. A Δ that dropped segments cannot be merged (it
// under-represents the piece the entry would claim): extend then returns
// the Δ's own labeled Result with dropped set, and publishes nothing.
func (l *LazySampler) extend(base *engine.Query, m *store.Match, deltaPred, pred algebra.Predicate,
	seed uint64, workers int, attrs ...obs.Attr) (res *Result, dropped bool, err error) {

	q, err := entryQuery(base, deltaPred)
	if err != nil {
		return nil, false, err
	}
	delta, dropped, err := buildSample(q, m.Meta.Schema, m.Meta.QCSWidth, m.Meta.K, seed, workers, "Δ-sample", attrs...)
	if err != nil || dropped {
		return delta, dropped, err
	}
	mergeStart := obs.Clock()
	msp := obs.SpanFrom(base.Ctx).Start("merge")
	defer msp.End()
	// The stored side is read through a fork: its strata draw from their
	// Substream(0x5C) and the sample from its Split(0xC1), the streams of
	// the copy a stored sample was once merged into. Merged samples, and
	// with them the answers TestReuseAnswerPins and TestAppendAnswerPins
	// record, keep the bits they had.
	merged, err := sample.MergeStratified(m.Sample.Fork(), delta.Sample, l.nextMergeGen(), workers)
	if err != nil {
		return nil, false, err
	}
	l.store.Update(m.Entry, merged, pred, base.Fact.NumRows())
	msp.SetAttrInt("strata", int64(merged.NumStrata()))
	msp.SetAttrInt("workers", int64(workers))
	return &Result{Sample: merged, Stats: delta.Stats, MergeTime: obs.Since(mergeStart)}, false, nil
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
//   - every other entry whose fact is the table is extended by the rows
//     after the ones it has absorbed, filtered by its own
//     predicate, joined or not. Joins here are key–foreign-key joins with
//     unique kept dimension keys, and a fact append leaves every dimension
//     unchanged, so the rows the join gains are exactly the appended rows
//     joined to the same dimensions; their sample merged by Algorithm 3 is
//     a fresh sample of the grown join (in the sampling algebra, a GUS
//     sample joined with an unsampled relation is GUS with the same
//     parameters).
//
// The join list of each entry is rebuilt from its input signature against
// tables (the catalog's lookup), so entries restored by a store load are
// maintained too; an input that no longer resolves is removed instead.
// Each entry's Δ is seeded by seed varied by the entry's store position.
func (l *LazySampler) MaintainAppend(grown *storage.Table, fromRow int, tables func(string) (*storage.Table, error), seed uint64, workers int) error {
	if grown.NumRows() == fromRow {
		return nil
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
		// Listed per input: removing an input that no longer resolves
		// shifts the store positions that seed the entries after it.
		for i, m := range l.store.List() {
			if m.Meta.Input != input {
				continue
			}
			// q carries no deadline, budget or shard planner, so its Δ
			// never drops segments.
			rest := *q
			rest.ScanFrom = m.Meta.Absorbed
			if _, _, err := l.extend(&rest, &m, m.Meta.Predicate, m.Meta.Predicate, seed+uint64(i)*0x9E37, workers); err != nil {
				return fmt.Errorf("core: maintaining %q: %w", input, err)
			}
		}
	}
	return nil
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

// entryQuery is q under pred alone: q's fact and join filters are dropped
// and pred is pushed down in their place, so a sample built from it covers
// exactly what a store entry claiming pred covers.
func entryQuery(q *engine.Query, pred algebra.Predicate) (*engine.Query, error) {
	bare := *q
	bare.Filter = algebra.NewPredicate()
	bare.Joins = slices.Clone(q.Joins)
	for i := range bare.Joins {
		bare.Joins[i].Filter = algebra.NewPredicate()
	}
	return pushDown(&bare, pred)
}

// pushDown clones q — its context, memory budget and segment planner
// included, so the build it feeds is charged and dispatched like q's own —
// with each of pred's column constraints intersected into the filter of the
// table owning the column: the fact filter for fact columns, the owning
// dimension's join filter otherwise (the filter pushdown below the
// Δ-sampler of Figure 7, step 3).
func pushDown(q *engine.Query, pred algebra.Predicate) (*engine.Query, error) {
	out := *q
	out.Joins = slices.Clone(q.Joins)
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
	return &out, nil
}
