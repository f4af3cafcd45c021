package core

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"laqy/internal/engine"
	"laqy/internal/governor"
	"laqy/internal/sample"
	"laqy/internal/storage"
	"laqy/internal/store"
)

// segFact cuts a testFact-shaped table into segments at the given row cuts.
func segFact(t *testing.T, n, groups int, cuts ...int) *storage.Table {
	t.Helper()
	tab, err := storage.SegmentTableAt(testFact(n, groups), cuts...)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestSampleRecordsSegmentWatermarks: a stored sample's one watermark is
// the number of fact rows it has absorbed, however many segments hold
// them.
func TestSampleRecordsSegmentWatermarks(t *testing.T) {
	fact := segFact(t, 30000, 4, 10000, 20000)
	l := New(store.New(0), 11)
	if _, err := l.Sample(request(fact, 0, 29999)); err != nil {
		t.Fatal(err)
	}
	matches := l.Store().List()
	if len(matches) != 1 {
		t.Fatalf("store holds %d entries", len(matches))
	}
	if got := matches[0].Meta.Absorbed; got != 30000 {
		t.Fatalf("absorbed rows = %d, want 30000", got)
	}
}

func TestMaintainResumesFromSegmentWatermarks(t *testing.T) {
	// Build a sample over a segmented table, grow the open segment via
	// AppendColumns (which preserves segment identity), and maintain: only
	// the appended rows are considered, and estimates extend to them.
	const segRows = storage.DefaultMorselSize
	const initial, extra, grps = segRows + 5000, 20000, 5
	fact, err := storage.Resegment(testFact(initial, grps), segRows)
	if err != nil {
		t.Fatal(err)
	}
	l, updates := observedSampler(12)
	if _, err := l.Sample(request(fact, 0, initial+extra)); err != nil {
		t.Fatal(err)
	}

	var batch [][]int64
	for _, c := range testFact(initial+extra, grps).Columns() {
		batch = append(batch, c.Ints[initial:])
	}
	grown, err := storage.AppendColumns(fact, batch, segRows)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.MaintainAppend(grown, initial, nil, 9, 2); err != nil {
		t.Fatal(err)
	}
	if updates.Value() != 1 {
		t.Fatalf("maintained %d samples, want 1", updates.Value())
	}
	// The weight below is initial+extra only if the Δ resumed the grown
	// segment after the absorbed rows (a rescan from its start would add
	// the segment's first 5000 rows again).
	out, err := l.Sample(request(grown, 0, initial+extra))
	if err != nil {
		t.Fatal(err)
	}
	if out.Mode != ModeOffline {
		t.Fatalf("mode after maintenance = %v", out.Mode)
	}
	if math.Abs(out.Sample.TotalWeight()-float64(initial+extra)) > 1e-6 {
		t.Fatalf("weight = %v, want %d", out.Sample.TotalWeight(), initial+extra)
	}

	// Maintaining again without new appends is a no-op, and the entry has
	// absorbed every row.
	if err := l.MaintainAppend(grown, grown.NumRows(), nil, 10, 2); err != nil {
		t.Fatal(err)
	}
	if updates.Value() != 1 {
		t.Fatalf("repeat maintain updated %d more samples, want none", updates.Value()-1)
	}
	if got := l.Store().List()[0].Meta.Absorbed; got != grown.NumRows() {
		t.Fatalf("absorbed rows after maintenance = %d, want %d", got, grown.NumRows())
	}
}

// exactStrata checks that every stratum of the store's one entry weighs
// the count of testFact's rows 0, …, rows-1 in its group (grps groups).
func exactStrata(t *testing.T, st *store.Store, rows, grps int) {
	t.Helper()
	entries := st.List()
	if len(entries) != 1 || entries[0].Meta.Absorbed != rows {
		t.Fatalf("%d entries, want one that absorbed %d rows", len(entries), rows)
	}
	entries[0].Sample.ForEach(func(key sample.StratumKey, r *sample.Reservoir) {
		want := rows / grps
		if int(key[0]) < rows%grps {
			want++
		}
		if r.Weight() != float64(want) {
			t.Fatalf("group %d weighs %v, want %d", key[0], r.Weight(), want)
		}
	})
}

// TestMaintainResumesAtAbsorbedRowsAcrossRelayout: the resume point does
// not depend on the segment layout. A sample built over segments of
// 10 000 rows and maintained after the table was laid out again in
// segments of 7 000 rows and grown counts every row once.
func TestMaintainResumesAtAbsorbedRowsAcrossRelayout(t *testing.T) {
	const initial, extra, grps = 30000, 4000, 4
	l := New(store.New(0), 11)
	if _, err := l.Sample(request(segFact(t, initial, grps, 10000, 20000), 0, 1<<20)); err != nil {
		t.Fatal(err)
	}
	grown := segFact(t, initial+extra, grps, 7000, 14000, 21000, 28000)
	if err := l.MaintainAppend(grown, initial, nil, 9, 2); err != nil {
		t.Fatal(err)
	}
	exactStrata(t, l.Store(), initial+extra, grps)
}

// TestSegmentMarksLoadAsAbsorbedRows: a store file written with a mark
// per segment (testdata/marks-v3.laqy: one entry over a
// 2·65 536 + 5 000-row testFact of 3 groups, its marks 65 536, 65 536 and
// 5 000 rows) loads as having absorbed the sum of its marks' rows, and
// maintenance over a grown table laid out otherwise adds only the
// appended rows.
func TestSegmentMarksLoadAsAbsorbedRows(t *testing.T) {
	const initial, extra, grps = 2*storage.DefaultMorselSize + 5000, 3000, 3
	f, err := os.Open(filepath.Join("testdata", "marks-v3.laqy"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st := store.New(0)
	if err := st.Load(f, 5); err != nil {
		t.Fatal(err)
	}
	exactStrata(t, st, initial, grps)
	grown, err := storage.Resegment(testFact(initial+extra, grps), 2*storage.DefaultMorselSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := New(st, 5).MaintainAppend(grown, initial, nil, 9, 2); err != nil {
		t.Fatal(err)
	}
	exactStrata(t, st, initial+extra, grps)
}

func TestDropDegradationExtrapolates(t *testing.T) {
	res := &Result{}
	dropDegradation(engine.Stats{RowsScanned: 3000, RowsDropped: 1000}, res)
	if len(res.Degradations) != 1 || res.Degradations[0].Step != governor.DegradeDropSegments {
		t.Fatalf("degradations = %+v", res.Degradations)
	}
	if math.Abs(res.Scale-4.0/3.0) > 1e-9 {
		t.Fatalf("scale = %v, want 4/3 (three quarters scanned)", res.Scale)
	}
	// No drops: untouched.
	clean := &Result{}
	dropDegradation(engine.Stats{RowsScanned: 3000}, clean)
	if len(clean.Degradations) != 0 || clean.Scale != 0 {
		t.Fatalf("clean result mutated: %+v", clean)
	}
}

// segmentPlanner is a test engine.SegmentPlanner: it counts the builds it
// plans and, when drop is set, makes the last of two or more segment
// sources unavailable (a shard down), leaving the others to survive.
type segmentPlanner struct {
	calls int
	drop  bool
}

func (p *segmentPlanner) PlanSegments(_ *engine.Query, _ []engine.ColumnExpr, _, _ int, local []engine.SegmentSource) []engine.SegmentSource {
	p.calls++
	if !p.drop || len(local) < 2 {
		return local
	}
	out := slices.Clone(local)
	out[len(out)-1] = unavailableSegment{out[len(out)-1]}
	return out
}

// unavailableSegment is a segment source whose build always fails as
// unavailable.
type unavailableSegment struct{ engine.SegmentSource }

func (unavailableSegment) Build(int, uint64) (sample.Part, engine.Stats, error) {
	return nil, engine.Stats{}, engine.ErrSegmentUnavailable
}

// withPlanner returns req with its query copied under planner p.
func withPlanner(req Request, p engine.SegmentPlanner) Request {
	q := *req.Query
	q.Planner = p
	req.Query = &q
	return req
}

// TestDeltaBuildKeepsPlanner: a partial reuse's Δ-build is dispatched
// through the query's segment planner, as the online build before it was.
func TestDeltaBuildKeepsPlanner(t *testing.T) {
	fact := testFact(factRows, groups)
	l := New(store.New(0), 1)
	p := &segmentPlanner{}
	if res, err := l.Sample(withPlanner(request(fact, 0, 9999), p)); err != nil || res.Mode != ModeOnline {
		t.Fatalf("first request: res %+v, err %v", res, err)
	}
	if p.calls != 1 {
		t.Fatalf("online build planned %d times, want 1", p.calls)
	}
	res, err := l.Sample(withPlanner(request(fact, 0, 19999), p))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModePartial {
		t.Fatalf("mode = %v, want partial", res.Mode)
	}
	if p.calls != 2 {
		t.Fatalf("planner saw %d builds, want 2: the Δ-build bypassed it", p.calls)
	}
}

// TestSupportRepairThatDroppedSegmentsIsRefused: a support repair whose
// build loses a segment holds only part of each failing stratum's rows, so
// it must not be installed; the request falls back to online sampling,
// whose answer discloses its own drop.
func TestSupportRepairThatDroppedSegmentsIsRefused(t *testing.T) {
	// The cut at 110 splits the narrowed range [100,120] across the two
	// segments; the planner drops the second.
	fact := segFact(t, factRows, groups, 110)
	l := New(store.New(0), 1)
	if _, err := l.Sample(request(fact, 0, 19999)); err != nil {
		t.Fatal(err)
	}
	req := request(fact, 100, 120)
	req.MinSupport = 30
	res, err := l.Sample(withPlanner(req, &segmentPlanner{drop: true}))
	if err != nil {
		t.Fatal(err)
	}
	labeled := false
	for _, d := range res.Degradations {
		labeled = labeled || d.Step == governor.DegradeDropSegments
	}
	if !labeled {
		t.Fatalf("answer not labeled drop_segments: mode %v, degradations %v", res.Mode, res.Degradations)
	}
	if !res.SupportFallback || res.Mode != ModeOnline {
		t.Fatalf("mode = %v, fallback = %v: a truncated repair was installed", res.Mode, res.SupportFallback)
	}
	if res.Scale <= 1 {
		t.Fatalf("scale = %v, want the online build's extrapolation > 1", res.Scale)
	}
}
