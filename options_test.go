package laqy

import (
	"context"
	"runtime"
	"testing"
	"time"

	"laqy/internal/approx"
	"laqy/internal/engine"
	"laqy/internal/obs"
	"laqy/internal/sql"
)

// openSegmented builds a DB of the given worker count whose lone table
// spans several storage segments: SegmentRows is pinned to the morsel-size
// floor (64 Ki rows) and the table holds ~2.2 segments' worth of rows.
func openSegmented(t *testing.T, workers int) (*DB, int) {
	t.Helper()
	const n = 150000
	db := Open(Config{Workers: workers, DefaultK: 256, Seed: 9, SegmentRows: 1})
	keys := make([]int64, n)
	vals := make([]int64, n)
	grp := make([]string, n)
	names := []string{"red", "green", "blue"}
	for i := range keys {
		keys[i] = int64(i)
		vals[i] = int64(i % 1000)
		grp[i] = names[i%3]
	}
	if err := db.Register(NewTable("t").Int64("key", keys).Int64("v", vals).String("g", grp)); err != nil {
		t.Fatal(err)
	}
	return db, n
}

// TestQuerySpansSegments: a build fans out over every segment, at the
// engine's parallelism — min(CPUs, segments, workers) — and one
// worker serializes the segment builds without losing any.
func TestQuerySpansSegments(t *testing.T) {
	for _, workers := range []int{2, 1} {
		db, n := openSegmented(t, workers)
		res, err := db.Query(`SELECT g, SUM(v) FROM t WHERE key BETWEEN 0 AND 149999 GROUP BY g APPROX WITH K 400`)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Segments < 2 {
			t.Fatalf("workers=%d: Segments = %d, want the build fanned out over >1 segment", workers, res.Stats.Segments)
		}
		if res.Stats.SegmentsBuilt != res.Stats.Segments {
			t.Fatalf("workers=%d: built %d of %d segments with no pressure", workers, res.Stats.SegmentsBuilt, res.Stats.Segments)
		}
		if want := min(runtime.NumCPU(), res.Stats.Segments, workers); res.Stats.SegmentParallelism != want {
			t.Fatalf("workers=%d: SegmentParallelism = %d, want %d", workers, res.Stats.SegmentParallelism, want)
		}
		if res.Stats.RowsDropped != 0 {
			t.Fatalf("workers=%d: RowsDropped = %d without pressure", workers, res.Stats.RowsDropped)
		}
		if res.Stats.RowsScanned != int64(n) {
			t.Fatalf("workers=%d: RowsScanned = %d, want %d", workers, res.Stats.RowsScanned, n)
		}
	}
}

// TestZoneMapPruningMatchesUnprunedPlan: a selective predicate prunes
// morsels in db.Query; the same plan run through the engine with its
// zone-map oracle switch off (every morsel filtered per row) must give the
// same answer.
func TestZoneMapPruningMatchesUnprunedPlan(t *testing.T) {
	db, _ := openSegmented(t, 2)
	const q = `SELECT g, SUM(v) FROM t WHERE key BETWEEN 1000 AND 1999 GROUP BY g`
	pruned, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Metrics().Counters[obs.MEngineMorselsPruned]; got == 0 {
		t.Fatal("the selective predicate pruned no morsel")
	}
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sql.PlanStatement(stmt, db.catalog)
	if err != nil {
		t.Fatal(err)
	}
	plan.Query.DisableZoneMaps = true
	ref, refStats, err := engine.RunGroupBy(plan.Query, plan.GroupBy, "v", 2)
	if err != nil {
		t.Fatal(err)
	}
	if refStats.MorselsPruned != 0 || refStats.MorselsFull != 0 {
		t.Fatalf("reference run consulted the zone map: %+v", refStats)
	}
	if len(pruned.Rows) != ref.NumGroups() {
		t.Fatalf("row counts differ: %d vs %d", len(pruned.Rows), ref.NumGroups())
	}
	want := map[string]float64{}
	for _, key := range ref.Keys() {
		want[decodeGroups(plan, key)[0].Str], _ = ref.Value(key, approx.Sum)
	}
	for _, row := range pruned.Rows {
		if w, ok := want[row.Groups[0].Str]; !ok || row.Aggs[0].Value != w {
			t.Fatalf("group %q: pruned %v vs unpruned %v (present=%v)", row.Groups[0].Str, row.Aggs[0].Value, w, ok)
		}
	}
}

func TestWithErrorBoundOption(t *testing.T) {
	db := openSSB(t, 40000)
	// Same contract as the SQL ERROR clause: an unmeetable bound falls
	// back to exact execution.
	strict, err := db.Query(`SELECT d_year, SUM(lo_revenue) FROM lineorder, date
		WHERE lo_orderdate = d_datekey
		GROUP BY d_year APPROX WITH K 16`, WithErrorBound(0.001, 99))
	if err != nil {
		t.Fatal(err)
	}
	if strict.Mode != ModeExactFallback {
		t.Fatalf("mode = %q, want exact_fallback", strict.Mode)
	}
	// A bound written in the SQL wins over the option: ERROR 20 is loose
	// enough that the K-4000 sample answers online even though the option
	// asks for the impossible.
	db.ClearSamples()
	loose, err := db.Query(`SELECT d_year, SUM(lo_revenue) FROM lineorder, date
		WHERE lo_orderdate = d_datekey
		GROUP BY d_year APPROX WITH K 4000 ERROR 20`, WithErrorBound(0.001, 99))
	if err != nil {
		t.Fatal(err)
	}
	if loose.Mode != ModeOnline {
		t.Fatalf("mode = %q, want online (SQL clause wins)", loose.Mode)
	}
}

func TestWithTimeoutOption(t *testing.T) {
	db, _ := openSegmented(t, 2)
	// An already-expired per-query timeout surfaces as a deadline error
	// (nothing built → nothing to degrade to).
	_, err := db.Query(`SELECT g, SUM(v) FROM t GROUP BY g APPROX WITH K 400`,
		WithTimeout(time.Nanosecond))
	if err == nil {
		t.Fatal("nanosecond timeout must fail or degrade; got full success with no error")
	}
	// An earlier context deadline still wins over a generous option.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, `SELECT g, SUM(v) FROM t GROUP BY g`, WithTimeout(time.Hour)); err == nil {
		t.Fatal("canceled context must fail despite WithTimeout")
	}
}

func TestNilOptionIsIgnored(t *testing.T) {
	db, _ := openSegmented(t, 2)
	if _, err := db.Query(`SELECT COUNT(*) FROM t`, nil, WithTimeout(0)); err != nil {
		t.Fatal(err)
	}
}
