package bench

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"laqy/internal/algebra"
	"laqy/internal/core"
	"laqy/internal/engine"
	"laqy/internal/governor"
	"laqy/internal/rng"
	"laqy/internal/sample"
	"laqy/internal/ssb"
	"laqy/internal/storage"
	"laqy/internal/store"
)

// countOracle counts fact rows per stratum under a predicate with a naive
// row loop. It reads each column from the fact table or, through the SSB
// foreign key, from the dimension row the key names — its own lookups, not
// the engine's joins, zone maps or kernels.
type countOracle struct {
	d    *Data
	vals map[string][]int64 // column → its value on every fact row
}

// column returns col's value on every fact row.
func (o *countOracle) column(t *testing.T, col string) []int64 {
	if v, ok := o.vals[col]; ok {
		return v
	}
	if c := o.d.Lineorder.Column(col); c != nil {
		o.vals[col] = c.Ints
		return c.Ints
	}
	for _, j := range []struct {
		dim    *storage.Table
		fk, pk string
	}{
		{o.d.SSB.Date, "lo_orderdate", "d_datekey"},
		{o.d.SSB.Supplier, "lo_suppkey", "s_suppkey"},
		{o.d.SSB.Part, "lo_partkey", "p_partkey"},
		{o.d.SSB.Customer, "lo_custkey", "c_custkey"},
	} {
		c := j.dim.Column(col)
		if c == nil {
			continue
		}
		row := map[int64]int{}
		for r, k := range j.dim.Column(j.pk).Ints {
			row[k] = r
		}
		v := make([]int64, o.d.Lineorder.NumRows())
		for i, k := range o.d.Lineorder.Column(j.fk).Ints {
			r, ok := row[k]
			if !ok {
				t.Fatalf("fact row %d: %s %d has no %s row", i, j.fk, k, j.pk)
			}
			v[i] = c.Ints[r]
		}
		o.vals[col] = v
		return v
	}
	t.Fatalf("column %q is in no SSB table", col)
	return nil
}

// check compares every stratum's weight in sam with the exact COUNT(*) of
// its rows under pred, bitwise, and describes the first mismatch ("" when
// weight is conserved). Strata present on one side only count as
// mismatches too.
func (o *countOracle) check(t *testing.T, pred algebra.Predicate, qcs []string, sam *sample.Stratified) string {
	want := map[sample.StratumKey]int64{}
	cols := pred.Columns()
	sets := make([]algebra.Set, len(cols))
	vals := make([][]int64, len(cols))
	for c, name := range cols {
		sets[c], _ = pred.Constraint(name)
		vals[c] = o.column(t, name)
	}
	keys := make([][]int64, len(qcs))
	for c, name := range qcs {
		keys[c] = o.column(t, name)
	}
rows:
	for i := range o.d.Lineorder.NumRows() {
		for c := range cols {
			if !sets[c].Contains(vals[c][i]) {
				continue rows
			}
		}
		var key sample.StratumKey
		for c := range keys {
			key[c] = keys[c][i]
		}
		want[key]++
	}
	bad := ""
	sam.ForEach(func(key sample.StratumKey, r *sample.Reservoir) {
		if r.Weight() != float64(want[key]) && bad == "" {
			bad = fmt.Sprintf("stratum %v weighs %v, exact count %d", key[:len(qcs)], r.Weight(), want[key])
		}
		delete(want, key)
	})
	for key, n := range want {
		if bad == "" {
			bad = fmt.Sprintf("stratum %v with %d rows missing from the sample", key[:len(qcs)], n)
		}
	}
	return bad
}

// growth appends batches of extra fact rows to a dataset's lineorder the
// way laqy.DB.Append does: through a storage.Catalog appender (rows written
// in place, segments sealed as the DB lays them out) and the sampler's
// MaintainAppend, while it holds the append lock.
type growth struct {
	cat   *storage.Catalog
	extra *storage.Table
	next  int // the first extra row not yet appended
}

// appendBatchRows is the size of one interleaved append.
const appendBatchRows = 800

// newGrowth registers d's tables in a fresh catalog and generates the rows
// to append: an SSB fact table over the same dimensions (whose sizes do not
// depend on the row count), its lo_intkey spread over d's key domain so
// the appended rows land inside the sequences' key ranges.
func newGrowth(t *testing.T, d *Data, rows int) *growth {
	t.Helper()
	g := &growth{cat: storage.NewCatalog()}
	for _, tab := range []*storage.Table{d.Lineorder, d.SSB.Date, d.SSB.Supplier, d.SSB.Part, d.SSB.Customer} {
		laid, err := storage.Resegment(tab, 4*storage.DefaultMorselSize)
		if err == nil {
			laid, err = storage.Seal(laid)
		}
		if err == nil {
			err = g.cat.Register(laid)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	extra, err := ssb.Generate(ssb.Config{LineorderRows: rows, Seed: d.Cfg.Seed + 11})
	if err != nil {
		t.Fatal(err)
	}
	spread := int64(d.Cfg.Rows / rows)
	for i := range extra.Lineorder.Column("lo_intkey").Ints {
		extra.Lineorder.Column("lo_intkey").Ints[i] *= spread
	}
	g.extra = extra.Lineorder
	return g
}

// appendBatch appends the next appendBatchRows extra rows to lineorder and
// maintains lazy's store with seed; before maintenance, it reports whether
// stale held — whether the oracle, reading the grown table, already
// disagreed with some entry (the checker cannot pass vacuously).
func (g *growth) appendBatch(t *testing.T, o *countOracle, lazy *core.LazySampler, seed uint64) (stale bool) {
	t.Helper()
	app, err := g.cat.BeginAppend("lineorder")
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	old := app.Table()
	batch := make([][]int64, len(old.Columns()))
	for i, c := range old.Columns() {
		batch[i] = g.extra.Column(c.Name).Ints[g.next : g.next+appendBatchRows]
	}
	g.next += appendBatchRows
	grown, err := app.Append(batch, 4*storage.DefaultMorselSize)
	if err != nil {
		t.Fatal(err)
	}
	o.d.Lineorder, o.vals = grown, map[string][]int64{}
	for _, m := range lazy.Store().List() {
		stale = stale || o.check(t, m.Meta.Predicate, m.Meta.QCS(), m.Sample) != ""
	}
	if err := lazy.MaintainAppend(grown, old.NumRows(), g.cat.Table, seed, 2); err != nil {
		t.Fatal(err)
	}
	return stale
}

// relayout lays lineorder out again in the catalog, in sealed segments of
// 3·DefaultMorselSize rows instead of 4, and points the oracle (and with
// it the requests) at that version, as a DB opened with another
// Config.SegmentRows lays out the same rows.
func (g *growth) relayout(t *testing.T, o *countOracle) {
	t.Helper()
	old, err := g.cat.Table("lineorder")
	if err != nil {
		t.Fatal(err)
	}
	laid, err := storage.Resegment(old, 3*storage.DefaultMorselSize)
	if err == nil {
		laid, err = storage.Seal(laid)
	}
	if err == nil {
		err = g.cat.Replace(old, laid)
	}
	if err != nil {
		t.Fatal(err)
	}
	if laid.Segments()[0].Rows() == old.Segments()[0].Rows() {
		t.Fatalf("re-layout kept the first segment's %d rows", old.Segments()[0].Rows())
	}
	o.d.Lineorder, o.vals = laid, map[string][]int64{}
}

// dropPlanner is an engine.SegmentPlanner that makes the first of two or
// more segment sources unavailable (a shard down), leaving the others to
// survive.
type dropPlanner struct{}

func (dropPlanner) PlanSegments(_ *engine.Query, _ []engine.ColumnExpr, _, _ int, local []engine.SegmentSource) []engine.SegmentSource {
	if len(local) < 2 {
		return local
	}
	out := slices.Clone(local)
	out[0] = unavailableSegment{out[0]}
	return out
}

// unavailableSegment is a segment source whose build always fails as
// unavailable.
type unavailableSegment struct{ engine.SegmentSource }

func (unavailableSegment) Build(int, uint64) (sample.Part, engine.Stats, error) {
	return nil, engine.Stats{}, engine.ErrSegmentUnavailable
}

// TestWeightConservation is the first rung of weight conservation as a
// machine-checked invariant: a reservoir's weight is the exact number of
// base rows offered to it (admission counts every row; Algorithms 2 and 3
// add weights). So after every step of the long, short and drifting
// sequences, in the Q1 (scan) and Q2 (three-join) shapes, every store
// entry's every stratum weighs exactly the COUNT(*) of its rows under the
// entry's predicate — across online builds, Δ-merges and offline hits, and
// across fact appends every fifth step, which Δ-maintain every entry (Q2's
// joined ones included) through the sampler entry point laqy.DB.Append
// uses. The oracle then reads the grown table. Every seventh step the store
// is saved and loaded into a fresh store under a fresh sampler, which the
// sequence then continues on: a restored entry must still say how many
// fact rows it has absorbed, or a later Δ-merge or maintenance pass
// double-counts them; at every second reload lineorder is also laid out
// again in segments of another size, which must not change what an entry
// has absorbed. Every third step runs under a planner that makes a
// segment unavailable once the first append has split the table in two: a
// build that dropped a segment answers labeled but must never be stored,
// nor a Δ-build that dropped one merged.
func TestWeightConservation(t *testing.T) {
	d, err := NewData(Config{Rows: 100_000, Seed: 3, K: 64, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const appendEvery, reloadEvery, dropEvery = 5, 7, 3
	// truncated counts the steps whose build dropped a segment, by the
	// mode that answered: online for a truncated online build, offline for
	// the stored serve that replaces a truncated Δ.
	truncated := map[core.Mode]int{}
	for _, seq := range []Sequence{Long, Short, Drift} {
		for _, q2 := range []bool{false, true} {
			steps := seq.Steps(d.Cfg)
			g := newGrowth(t, d, (len(steps)/appendEvery+1)*appendBatchRows)
			grown := *d // each case starts from the loaded table, as registered
			if grown.Lineorder, err = g.cat.Table("lineorder"); err != nil {
				t.Fatal(err)
			}
			o := &countOracle{d: &grown, vals: map[string][]int64{}}
			lazy := core.New(store.New(0), d.Cfg.Seed)
			modes := map[core.Mode]int{}
			staleSeen := false
			// restored maps each entry of the last load to the sample it
			// was loaded with; an entry whose sample later changed was
			// Δ-merged or maintained after the load.
			var restored map[*store.Entry]*sample.Stratified
			restoredUsed := false
			drops, reloads := 0, 0
			for i, step := range steps {
				if i > 0 && i%appendEvery == 0 {
					staleSeen = g.appendBatch(t, o, lazy, d.Cfg.Seed+uint64(5000+i)) || staleSeen
				}
				if i > 0 && i%reloadEvery == 0 {
					lazy, restored = reload(t, lazy, d.Cfg.Seed+uint64(7000+i))
					if reloads++; reloads%2 == 0 {
						g.relayout(t, o)
					}
				}
				sh, err := grown.shape(step, q2)
				if err != nil {
					t.Fatal(err)
				}
				req := grown.request(sh, d.Cfg.Seed+uint64(i))
				if i%dropEvery == 0 {
					q := *req.Query
					q.Planner = dropPlanner{}
					req.Query = &q
				}
				res, err := lazy.Sample(req)
				if err != nil {
					t.Fatal(err)
				}
				modes[res.Mode]++
				for _, deg := range res.Degradations {
					if deg.Step == governor.DegradeDropSegments {
						truncated[res.Mode]++
						drops++
					}
				}
				for _, m := range lazy.Store().List() {
					if bad := o.check(t, m.Meta.Predicate, m.Meta.QCS(), m.Sample); bad != "" {
						t.Fatalf("%s (q2=%v) step %d (%s): entry %s over %s: %s", seq, q2, i, res.Mode, m.Meta.Predicate, m.Meta.Input, bad)
					}
					if was, ok := restored[m.Entry]; ok && was != m.Sample {
						restoredUsed = true
					}
				}
			}
			if modes[core.ModePartial] == 0 {
				t.Fatalf("%s: modes %v — the sequence must exercise Δ-merges", seq, modes)
			}
			if !staleSeen {
				t.Fatalf("%s (q2=%v): no append left an entry stale before maintenance — the appends test nothing", seq, q2)
			}
			if !restoredUsed {
				t.Fatalf("%s (q2=%v): no restored entry was Δ-merged or maintained — the reloads test nothing", seq, q2)
			}
			if drops == 0 {
				t.Fatalf("%s (q2=%v): no build dropped a segment — the drops test nothing", seq, q2)
			}
		}
	}
	if truncated[core.ModeOnline] == 0 || truncated[core.ModeOffline] == 0 {
		t.Fatalf("builds that dropped a segment, by mode: %v — want both a truncated online build and a truncated Δ", truncated)
	}
}

// reload saves lazy's store to a buffer and loads it into a fresh store
// under a fresh sampler seeded with seed, returning that sampler and its
// entries, each mapped to the sample it was loaded with.
func reload(t *testing.T, lazy *core.LazySampler, seed uint64) (*core.LazySampler, map[*store.Entry]*sample.Stratified) {
	t.Helper()
	var buf bytes.Buffer
	if err := lazy.Store().Save(&buf); err != nil {
		t.Fatal(err)
	}
	st := store.New(0)
	if err := st.Load(&buf, seed); err != nil {
		t.Fatal(err)
	}
	if st.Len() != lazy.Store().Len() {
		t.Fatalf("reload kept %d of %d entries", st.Len(), lazy.Store().Len())
	}
	restored := map[*store.Entry]*sample.Stratified{}
	for _, m := range st.List() {
		restored[m.Entry] = m.Sample
	}
	return core.New(st, seed), restored
}

// TestWeightConservationCheckerCatchesDoubleMerge keeps the checker from
// passing vacuously: a sample that merged a Δ once conserves weight under
// the widened predicate; merging the same Δ a second time must fail it.
func TestWeightConservationCheckerCatchesDoubleMerge(t *testing.T) {
	d := tiny(t)
	o := &countOracle{d: d, vals: map[string][]int64{}}
	build := func(lo, hi int64) *sample.Stratified {
		sh := d.q1(lo, hi)
		s, _, err := engine.RunStratifiedExprs(sh.Query, engine.ExprsFromNames(sh.Schema), sh.QCSWidth, 16, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		return sample.Seal(s, 1)
	}
	base, delta := build(0, 9_999), build(10_000, 19_999)
	if bad := o.check(t, d.q1(0, 9_999).Predicate, []string{"lo_orderdate"}, base); bad != "" {
		t.Fatalf("fresh build: %s", bad)
	}
	once, err := sample.MergeStratified(base, delta, rng.NewLehmer64(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	widened := d.q1(0, 19_999).Predicate
	if bad := o.check(t, widened, []string{"lo_orderdate"}, once); bad != "" {
		t.Fatalf("one merge: %s", bad)
	}
	twice, err := sample.MergeStratified(once, delta, rng.NewLehmer64(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	if bad := o.check(t, widened, []string{"lo_orderdate"}, twice); bad == "" {
		t.Fatal("a Δ merged twice passed the weight-conservation check")
	}
}
