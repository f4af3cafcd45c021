package engine

import (
	"testing"

	"laqy/internal/algebra"
	"laqy/internal/approx"
	"laqy/internal/rng"
	"laqy/internal/storage"
)

// buildPruneFact builds a multi-morsel fact table shaped for pruning tests:
//
//	p_seq:   0..n-1 sorted (clustered — zone ranges are tight and disjoint)
//	p_noise: uniform random in [0, 1000) (unclustered — every zone straddles)
//	p_group: i % 5
//	p_val:   random in [0, 10000)
func buildPruneFact(n int, seed uint64) *storage.Table {
	rg := rng.NewLehmer64(seed)
	seq := make([]int64, n)
	noise := make([]int64, n)
	grp := make([]int64, n)
	val := make([]int64, n)
	for i := 0; i < n; i++ {
		seq[i] = int64(i)
		noise[i] = int64(rg.Intn(1000))
		grp[i] = int64(i % 5)
		val[i] = int64(rg.Intn(10000))
	}
	return storage.MustNewTable("prunefact",
		&storage.Column{Name: "p_seq", Kind: storage.KindInt64, Ints: seq},
		&storage.Column{Name: "p_noise", Kind: storage.KindInt64, Ints: noise},
		&storage.Column{Name: "p_group", Kind: storage.KindInt64, Ints: grp},
		&storage.Column{Name: "p_val", Kind: storage.KindInt64, Ints: val},
	)
}

// groupBySnapshot flattens a GroupResult into a comparable map.
func groupBySnapshot(t *testing.T, res *GroupResult) map[GroupKey][2]float64 {
	t.Helper()
	out := make(map[GroupKey][2]float64, res.NumGroups())
	for _, k := range res.Keys() {
		sum, _ := res.Value(k, int(approx.Sum))
		cnt, _ := res.Value(k, int(approx.Count))
		out[k] = [2]float64{sum, cnt}
	}
	return out
}

// runBoth executes the same group-by with and without zone maps (workers=1
// so float accumulation order is identical) and returns both results.
func runBoth(t *testing.T, fact *storage.Table, pred algebra.Predicate, scanFrom int) (pruned, ref *GroupResult, ps, rs Stats) {
	t.Helper()
	qp := &Query{Fact: fact, Filter: pred, ScanFrom: scanFrom}
	qr := &Query{Fact: fact, Filter: pred, ScanFrom: scanFrom, DisableZoneMaps: true}
	var err error
	pruned, ps, err = RunExact(qp, []string{"p_group"}, allKinds("p_val"), 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, rs, err = RunExact(qr, []string{"p_group"}, allKinds("p_val"), 1)
	if err != nil {
		t.Fatal(err)
	}
	return pruned, ref, ps, rs
}

func assertSameResult(t *testing.T, pruned, ref *GroupResult, ps, rs Stats) {
	t.Helper()
	if rs.MorselsPruned != 0 || rs.MorselsFull != 0 {
		t.Fatalf("reference run pruned: %+v", rs)
	}
	if ps.RowsSelected != rs.RowsSelected {
		t.Fatalf("RowsSelected: pruned %d, reference %d", ps.RowsSelected, rs.RowsSelected)
	}
	got, want := groupBySnapshot(t, pruned), groupBySnapshot(t, ref)
	if len(got) != len(want) {
		t.Fatalf("group count: pruned %d, reference %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok || g != w {
			t.Fatalf("group %v: pruned %v, reference %v (present=%v)", k, g, w, ok)
		}
	}
}

// TestZoneMapPruningMatchesReference is the pruning soundness property:
// for randomized predicates over clustered and unclustered columns, a
// zone-map-pruned scan is bit-identical to the unpruned reference scan —
// same selected rows, same per-group sums and counts. Pruning is exact,
// never statistical.
func TestZoneMapPruningMatchesReference(t *testing.T) {
	const n = 3*storage.DefaultMorselSize + 12345 // 4 morsels, last short
	fact := buildPruneFact(n, 42)
	rg := rng.NewLehmer64(43)

	for trial := 0; trial < 30; trial++ {
		pred := algebra.NewPredicate()
		// Random clustered range (sometimes empty, sometimes huge).
		if rg.Intn(4) != 0 {
			lo := int64(rg.Intn(n))
			hi := lo + int64(rg.Intn(n))
			pred = pred.WithRange("p_seq", lo, hi)
		}
		// Random unclustered range.
		if rg.Intn(2) == 0 {
			lo := int64(rg.Intn(1000))
			pred = pred.WithRange("p_noise", lo, lo+int64(rg.Intn(1000)))
		}
		scanFrom := 0
		if rg.Intn(3) == 0 {
			// Δ-scan: start mid-table, misaligned with zone boundaries.
			scanFrom = rg.Intn(n)
		}
		pruned, ref, ps, rs := runBoth(t, fact, pred, scanFrom)
		assertSameResult(t, pruned, ref, ps, rs)
	}
}

// TestZoneMapPruningSkipsAndFullPaths pins the two fast paths on shaped
// predicates: a selective clustered predicate must actually skip morsels,
// and an all-covering single-interval predicate must take the compare-free
// full path on every morsel.
func TestZoneMapPruningSkipsAndFullPaths(t *testing.T) {
	const n = 3*storage.DefaultMorselSize + 12345
	fact := buildPruneFact(n, 7)

	// Selective: only the first morsel can contain p_seq <= 9999.
	sel := algebra.NewPredicate().WithRange("p_seq", 0, 9999)
	pruned, ref, ps, rs := runBoth(t, fact, sel, 0)
	assertSameResult(t, pruned, ref, ps, rs)
	if ps.MorselsPruned < 3 {
		t.Fatalf("selective clustered predicate pruned %d morsels, want >= 3 (stats %+v)", ps.MorselsPruned, ps)
	}

	// Covering: every row qualifies, every morsel takes the full path.
	cover := algebra.NewPredicate().WithRange("p_seq", -10, int64(n)+10)
	pruned, ref, ps, rs = runBoth(t, fact, cover, 0)
	assertSameResult(t, pruned, ref, ps, rs)
	if ps.MorselsFull != 4 {
		t.Fatalf("covering predicate took full path on %d morsels, want 4 (stats %+v)", ps.MorselsFull, ps)
	}
	if ps.RowsSelected != int64(n) {
		t.Fatalf("covering predicate selected %d rows, want %d", ps.RowsSelected, n)
	}

	// Disjoint: nothing qualifies, every morsel is skipped outright.
	none := algebra.NewPredicate().WithRange("p_seq", int64(n)+100, int64(n)+200)
	pruned, ref, ps, rs = runBoth(t, fact, none, 0)
	assertSameResult(t, pruned, ref, ps, rs)
	if ps.MorselsPruned != 4 || ps.RowsSelected != 0 {
		t.Fatalf("disjoint predicate: pruned=%d selected=%d, want 4 and 0", ps.MorselsPruned, ps.RowsSelected)
	}
}

// TestZoneMapAppendInvalidation builds a longer table from a copy of a
// table's rows plus new ones — a new Table with no cache in common with the
// old — and checks the grown table's scans see the appended rows: the new
// version builds a fresh zone map, so a predicate selecting only the
// appended tail is answered from the new summary, and the incremental
// ScanFrom Δ-scan over just the tail prunes correctly too.
func TestZoneMapAppendInvalidation(t *testing.T) {
	const n = storage.DefaultMorselSize + 100
	base := buildPruneFact(n, 11)
	// Warm the base table's zone map so a buggy shared cache would go stale.
	if base.Segments()[0].ZoneMap() == nil {
		t.Fatal("no zone map for base table")
	}

	// A new Table with extra rows continuing the sequence.
	const extra = storage.DefaultMorselSize / 2
	cols := make([]*storage.Column, 0, 4)
	for _, c := range base.Columns() {
		vals := make([]int64, n+extra)
		copy(vals, c.Ints)
		cols = append(cols, &storage.Column{Name: c.Name, Kind: c.Kind, Ints: vals})
	}
	grown := storage.MustNewTable(base.Name, cols...)
	rg := rng.NewLehmer64(12)
	for i := n; i < n+extra; i++ {
		grown.Column("p_seq").Ints[i] = int64(i)
		grown.Column("p_noise").Ints[i] = int64(rg.Intn(1000))
		grown.Column("p_group").Ints[i] = int64(i % 5)
		grown.Column("p_val").Ints[i] = int64(rg.Intn(10000))
	}

	// Predicate selecting only appended rows; full scan of the grown table.
	tail := algebra.NewPredicate().WithRange("p_seq", int64(n), int64(n+extra))
	pruned, ref, ps, rs := runBoth(t, grown, tail, 0)
	assertSameResult(t, pruned, ref, ps, rs)
	if rs.RowsSelected != int64(extra) {
		t.Fatalf("tail predicate selected %d rows, want %d", rs.RowsSelected, extra)
	}

	// Incremental Δ-scan: only the appended range, pruning still exact.
	pruned, ref, ps, rs = runBoth(t, grown, tail, n)
	assertSameResult(t, pruned, ref, ps, rs)
	if rs.RowsSelected != int64(extra) {
		t.Fatalf("Δ-scan selected %d rows, want %d", rs.RowsSelected, extra)
	}

	// The base table must be unaffected: a predicate beyond its rows
	// selects nothing and is provably skippable everywhere.
	prunedB, refB, psB, rsB := runBoth(t, base, tail, 0)
	assertSameResult(t, prunedB, refB, psB, rsB)
	if rsB.RowsSelected != 0 || psB.MorselsPruned == 0 {
		t.Fatalf("base table after append: selected=%d pruned=%d", rsB.RowsSelected, psB.MorselsPruned)
	}
}

// appendPruneRows grows a prune fact through storage.AppendColumns (so the
// sealed segments carry their zone maps), continuing p_seq and p_group and
// drawing fresh noise and values.
func appendPruneRows(t *testing.T, tab *storage.Table, extra int, seed uint64) *storage.Table {
	t.Helper()
	n := tab.NumRows()
	rg := rng.NewLehmer64(seed)
	grown := make([]*storage.Column, 0, len(tab.Columns()))
	for _, c := range tab.Columns() {
		vals := append(make([]int64, 0, n+extra), c.Ints...)
		for i := n; i < n+extra; i++ {
			switch c.Name {
			case "p_seq":
				vals = append(vals, int64(i))
			case "p_group":
				vals = append(vals, int64(i%5))
			case "p_noise":
				vals = append(vals, int64(rg.Intn(1000)))
			default:
				vals = append(vals, int64(rg.Intn(10000)))
			}
		}
		grown = append(grown, &storage.Column{Name: c.Name, Kind: c.Kind, Ints: vals})
	}
	batch := make([][]int64, len(grown))
	for i, c := range grown {
		batch[i] = c.Ints[n:]
	}
	nt, err := storage.AppendColumns(tab, batch, 0)
	if err != nil {
		t.Fatal(err)
	}
	return nt
}

// TestStraddlingMorselVerdicts pins how a scan crosses a seal on the layout
// ingest leaves behind: a clustered table sealed at a row count that is not
// a multiple of the morsel size, then grown by small appends into the open
// segment. No morsel straddles the seal: the morsels are cut at it, so the
// sealed segment's last morsel is short, the open segment's first starts at
// its row 0, and each reads its own segment's zone map. The scans must
// equal the DisableZoneMaps reference, and each verdict must be reachable
// on the morsels either side of the seal.
func TestStraddlingMorselVerdicts(t *testing.T) {
	const sealedRows = 500_000 // 7 morsels + 41 248 rows
	const m = storage.DefaultMorselSize
	tab, err := storage.Seal(buildPruneFact(sealedRows, 31))
	if err != nil {
		t.Fatal(err)
	}
	anySeq := algebra.NewPredicate().WithRange("p_seq", 0, 1<<40)

	// Fresh after Seal the open segment is empty: the plan holds the sealed
	// segment alone.
	plan, err := newMorselPlan(&Query{Fact: tab, Filter: anySeq})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.segs) != 1 || len(plan.morsels) != 8 {
		t.Fatalf("plan over an empty open segment: %d segments, %d morsels", len(plan.segs), len(plan.morsels))
	}
	if last := plan.morsels[7]; last.Start != 7*m || last.End != sealedRows || plan.lookup(last) != morselFull {
		t.Fatalf("last sealed morsel [%d,%d): verdict %d, want full", last.Start, last.End, plan.lookup(last))
	}

	// sides returns the two morsels of the scan from `from` that meet at
	// the seal, with their verdicts under pred, having checked that every
	// morsel lies inside its segment.
	sides := func(fact *storage.Table, pred algebra.Predicate, from int) (before, after morsel, vb, va morselVerdict) {
		t.Helper()
		plan, err := newMorselPlan(&Query{Fact: fact, Filter: pred, ScanFrom: from})
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.segs) != 2 {
			t.Fatalf("plan holds %d segments, want the sealed and the open one", len(plan.segs))
		}
		for i, mo := range plan.morsels {
			if seg := plan.segs[mo.seg].seg; mo.Start < 0 || mo.End > seg.Rows() || mo.Len() > m {
				t.Fatalf("morsel [%d,%d) of segment %d is not inside its %d rows", mo.Start, mo.End, seg.ID(), seg.Rows())
			}
			if mo.seg == 0 && mo.End == sealedRows {
				next := plan.morsels[i+1]
				if next.seg != 1 || next.Start != 0 {
					t.Fatalf("the morsel after the seal is [%d,%d) of segment %d", next.Start, next.End, next.seg)
				}
				return mo, next, plan.lookup(mo), plan.lookup(next)
			}
		}
		t.Fatalf("no morsel of the scan from %d ends at the seal", from)
		return morsel{}, morsel{}, 0, 0
	}

	for ai, extra := range []int{3_000, 20_000, 50_000} {
		tab = appendPruneRows(t, tab, extra, uint64(40+ai))
		n := int64(tab.NumRows())
		appended := int(n) - sealedRows
		for _, from := range []int{0, 123_457} {
			before, after, _, _ := sides(tab, anySeq, from)
			if after.End != min(appended, m) {
				t.Fatalf("append %d from %d: the open segment's first morsel is [%d,%d)", ai, from, after.Start, after.End)
			}
			// The bounds a map can know: p_seq is the row index, and a map
			// answers in whole zones, aligned to its segment's start.
			lo := int64(before.Start / m * m)
			shapes := []struct {
				name         string
				pred         algebra.Predicate
				wantB, wantA morselVerdict
			}{
				{"before the seal's morsels", algebra.NewPredicate().WithRange("p_seq", 0, lo-1), morselSkip, morselSkip},
				{"sealed rows only", algebra.NewPredicate().WithRange("p_seq", 0, sealedRows-1), morselFull, morselSkip},
				{"appended rows only", algebra.NewPredicate().WithRange("p_seq", sealedRows, n), morselSkip, morselFull},
				{"covering both", algebra.NewPredicate().WithRange("p_seq", lo-10, n), morselFull, morselFull},
				{"inside the sealed tail", algebra.NewPredicate().WithRange("p_seq", sealedRows-100, sealedRows-50), morselPartial, morselSkip},
				{"covering both, and noise", algebra.NewPredicate().WithRange("p_seq", lo-10, n).WithRange("p_noise", 100, 899), morselPartial, morselPartial},
				{"sealed rows only, and noise", algebra.NewPredicate().WithRange("p_seq", 0, sealedRows-1).WithRange("p_noise", 100, 899), morselPartial, morselSkip},
				{"covering both, and all noise", algebra.NewPredicate().WithRange("p_seq", lo-10, n).WithRange("p_noise", 0, 999), morselFull, morselFull},
			}
			for _, sh := range shapes {
				if _, _, vb, va := sides(tab, sh.pred, from); vb != sh.wantB || va != sh.wantA {
					t.Fatalf("append %d from %d, %s: verdicts %d and %d either side of the seal, want %d and %d",
						ai, from, sh.name, vb, va, sh.wantB, sh.wantA)
				}
				pruned, ref, ps, rs := runBoth(t, tab, sh.pred, from)
				assertSameResult(t, pruned, ref, ps, rs)

				exprs := ExprsFromNames([]string{"p_seq", "p_val"})
				got, gotCount, gs, err := foldSums(&Query{Fact: tab, Filter: sh.pred, ScanFrom: from}, exprs, 1)
				if err != nil {
					t.Fatal(err)
				}
				want, wantCount, ws, err := foldSums(&Query{Fact: tab, Filter: sh.pred, ScanFrom: from, DisableZoneMaps: true}, exprs, 1)
				if err != nil {
					t.Fatal(err)
				}
				if gs.RowsSelected != ws.RowsSelected || gotCount != wantCount || got[0] != want[0] || got[1] != want[1] {
					t.Fatalf("append %d from %d, %s: fused %v over %d rows, reference %v over %d",
						ai, from, sh.name, got, gotCount, want, wantCount)
				}
				if gs.MorselsFused != gs.MorselsFull || ws.MorselsFused != 0 {
					t.Fatalf("append %d from %d, %s: fused %d of %d full morsels (reference fused %d)",
						ai, from, sh.name, gs.MorselsFused, gs.MorselsFull, ws.MorselsFused)
				}
			}
		}
	}
}
