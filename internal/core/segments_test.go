package core

import (
	"math"
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
	marks := matches[0].Meta.Segments
	if len(marks) != 3 {
		t.Fatalf("watermarks = %+v, want 3 marks", marks)
	}
	wantRows := []int{10000, 10000, 10000}
	for i, m := range marks {
		if m.ID != i || m.Rows != wantRows[i] || m.Version != 1 {
			t.Fatalf("mark %d = %+v, want id %d rows %d v1", i, m, i, wantRows[i])
		}
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

	grownCols := testFact(initial+extra, grps).Columns()
	grown, err := storage.AppendColumns(fact, grownCols, segRows)
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
	// segment after its watermark (a rescan from its start would add the
	// segment's first 5000 rows again).
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

	// Maintaining again without new appends is a no-op, and the
	// watermarks already cover every segment's rows.
	if err := l.MaintainAppend(grown, grown.NumRows(), nil, 10, 2); err != nil {
		t.Fatal(err)
	}
	if updates.Value() != 1 {
		t.Fatalf("repeat maintain updated %d more samples, want none", updates.Value()-1)
	}
	marks := l.Store().List()[0].Meta.Segments
	for _, s := range grown.Segments() {
		if from := watermarkFrom(grown, marks)[s.ID()]; from != s.End() {
			t.Fatalf("segment %d resumes at %d after maintenance, want its end %d", s.ID(), from, s.End())
		}
	}
}

func TestWatermarkFromFallsBackToFullScan(t *testing.T) {
	fact := segFact(t, 3000, 3, 1000, 2000)
	segs := fact.Segments()
	marks := []store.SegmentWatermark{
		{ID: 0, Version: 1, Rows: 1000}, // fully covered
		{ID: 1, Version: 1, Rows: 400},  // partially covered
		{ID: 2, Version: 1, Rows: 5000}, // implausible: more rows than the segment holds
	}
	from := watermarkFrom(fact, marks)
	if from[0] != segs[0].End() {
		t.Fatalf("covered segment resumes at %d, want its end %d", from[0], segs[0].End())
	}
	if from[1] != segs[1].Start()+400 {
		t.Fatalf("partial segment resumes at %d, want %d", from[1], segs[1].Start()+400)
	}
	if from[2] != segs[2].Start() {
		t.Fatalf("implausible mark must rescan from %d, got %d", segs[2].Start(), from[2])
	}
	// A segment with no mark at all rescans from its start.
	from = watermarkFrom(fact, marks[:2])
	if from[2] != segs[2].Start() {
		t.Fatalf("unmarked segment resumes at %d, want %d", from[2], segs[2].Start())
	}
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
