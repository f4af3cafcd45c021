package laqy

import (
	"math"
	"path/filepath"
	"strconv"
	"testing"
)

// TestEndToEndExplorationSession walks a realistic multi-phase analyst
// session through the public API, asserting the mode transitions, store
// telemetry, accuracy, persistence, and maintenance behaviour all compose.
func TestEndToEndExplorationSession(t *testing.T) {
	const rows = 80_000
	db := Open(Config{Workers: 2, DefaultK: 512, Seed: 21})
	if err := db.LoadSSB(rows, 7); err != nil {
		t.Fatal(err)
	}

	q1 := func(lo, hi int) string {
		return `SELECT d_year, SUM(lo_revenue) FROM lineorder, date
			WHERE lo_orderdate = d_datekey AND lo_intkey BETWEEN ` +
			strconv.Itoa(lo) + ` AND ` + strconv.Itoa(hi) + `
			GROUP BY d_year APPROX`
	}

	// Phase 1: initial exploration — online, then expand (partial), then
	// dashboard refreshes (offline).
	modes := []Mode{}
	for _, r := range []struct{ lo, hi int }{
		{10_000, 20_000}, // cold
		{10_000, 35_000}, // extend right
		{5_000, 35_000},  // extend left
		{5_000, 35_000},  // refresh
		{12_000, 30_000}, // zoom in
	} {
		res, err := db.Query(q1(r.lo, r.hi))
		if err != nil {
			t.Fatal(err)
		}
		modes = append(modes, res.Mode)
	}
	want := []Mode{ModeOnline, ModePartial, ModePartial, ModeOffline, ModeOffline}
	for i := range want {
		if modes[i] != want[i] {
			t.Fatalf("phase 1 modes = %v, want %v", modes, want)
		}
	}
	st := db.SampleStoreStats()
	if st.Samples != 1 || st.PartialReuses != 2 || st.FullReuses != 2 {
		t.Fatalf("store after phase 1 = %+v", st)
	}

	// Phase 2: accuracy against exact on the final covered range.
	exact, err := db.Query(`SELECT d_year, SUM(lo_revenue) FROM lineorder, date
		WHERE lo_orderdate = d_datekey AND lo_intkey BETWEEN 5000 AND 35000
		GROUP BY d_year`)
	if err != nil {
		t.Fatal(err)
	}
	apx, err := db.Query(q1(5_000, 35_000))
	if err != nil {
		t.Fatal(err)
	}
	if apx.Mode != ModeOffline {
		t.Fatalf("phase 2 mode = %q", apx.Mode)
	}
	for i := range exact.Rows {
		e, a := exact.Rows[i].Aggs[0].Value, apx.Rows[i].Aggs[0].Value
		if math.Abs(a-e)/e > 0.15 {
			t.Fatalf("group %v: approx %.0f vs exact %.0f", exact.Rows[i].Groups[0], a, e)
		}
	}

	// Phase 3: persist, reopen, and reuse without a scan.
	path := filepath.Join(t.TempDir(), "samples.laqy")
	if err := db.SaveSamples(path); err != nil {
		t.Fatal(err)
	}
	db2 := Open(Config{Workers: 2, DefaultK: 512, Seed: 21})
	if err := db2.LoadSSB(rows, 7); err != nil {
		t.Fatal(err)
	}
	if err := db2.LoadSamples(path); err != nil {
		t.Fatal(err)
	}
	res, err := db2.Query(q1(8_000, 30_000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeOffline || res.Stats.RowsScanned != 0 {
		t.Fatalf("restored session mode = %q scanned = %d", res.Mode, res.Stats.RowsScanned)
	}

	// Phase 4: data grows; the join-level sample is Δ-maintained with the
	// appended fact rows joined to the unchanged dimensions, so the next
	// query still answers offline, over the grown table, scanning nothing.
	lo, err := db2.catalog.Table("lineorder")
	if err != nil {
		t.Fatal(err)
	}
	appendRows := 1000
	b := NewTable("lineorder")
	for _, c := range lo.Columns() {
		vals := make([]int64, appendRows)
		for i := range vals {
			vals[i] = c.Ints[i]
		}
		b.Int64(c.Name, vals)
	}
	if err := db2.Append("lineorder", b); err != nil {
		t.Fatal(err)
	}
	if n, _ := db2.NumRows("lineorder"); n != rows+appendRows {
		t.Fatalf("rows after append = %d", n)
	}
	res2, err := db2.Query(q1(8_000, 30_000))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Mode != ModeOffline || res2.Stats.RowsScanned != 0 {
		t.Fatalf("post-append join query mode = %q scanned = %d, want offline (maintained), 0",
			res2.Mode, res2.Stats.RowsScanned)
	}
}

// TestEndToEndScanLevelMaintenance drives a scan-level (no-join) session
// through Append and verifies the cached sample absorbs the new rows.
func TestEndToEndScanLevelMaintenance(t *testing.T) {
	const rows = 40_000
	db := Open(Config{Workers: 2, DefaultK: 4000, Seed: 31})
	if err := db.LoadSSB(rows, 3); err != nil {
		t.Fatal(err)
	}
	q := `SELECT lo_quantity, SUM(lo_revenue) FROM lineorder
		GROUP BY lo_quantity APPROX`
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}

	// Append rows with known revenue and an in-range quantity.
	appendRows := 2000
	lo, err := db.catalog.Table("lineorder")
	if err != nil {
		t.Fatal(err)
	}
	b := NewTable("lineorder")
	var appendRevenue float64
	for _, c := range lo.Columns() {
		vals := make([]int64, appendRows)
		for i := range vals {
			switch c.Name {
			case "lo_quantity":
				vals[i] = 1
			case "lo_revenue":
				vals[i] = 1_000_000
			default:
				vals[i] = c.Ints[i%lo.NumRows()]
			}
		}
		if c.Name == "lo_revenue" {
			appendRevenue = float64(appendRows) * 1_000_000
		}
		b.Int64(c.Name, vals)
	}
	if err := db.Append("lineorder", b); err != nil {
		t.Fatal(err)
	}

	// The maintained sample serves the query offline, including the new
	// revenue mass in stratum lo_quantity=1.
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeOffline {
		t.Fatalf("post-append mode = %q, want offline (maintained)", res.Mode)
	}
	exact, err := db.Query(`SELECT lo_quantity, SUM(lo_revenue) FROM lineorder GROUP BY lo_quantity`)
	if err != nil {
		t.Fatal(err)
	}
	var apxQ1, exactQ1 float64
	for i, row := range exact.Rows {
		if row.Groups[0].Int == 1 {
			exactQ1 = row.Aggs[0].Value
			apxQ1 = res.Rows[i].Aggs[0].Value
		}
	}
	if exactQ1 < appendRevenue {
		t.Fatalf("exact stratum sum %.0f below appended revenue %.0f", exactQ1, appendRevenue)
	}
	if math.Abs(apxQ1-exactQ1)/exactQ1 > 0.10 {
		t.Fatalf("maintained stratum estimate %.0f vs exact %.0f", apxQ1, exactQ1)
	}
}

// TestEndToEndStreamingPlusSQL runs the streaming API alongside SQL on one
// process to ensure the packages compose without interference.
func TestEndToEndStreamingPlusSQL(t *testing.T) {
	db := Open(Config{Workers: 2, Seed: 9})
	if err := db.LoadSSB(10_000, 2); err != nil {
		t.Fatal(err)
	}
	w, err := NewWindowed(WindowConfig{
		Columns: []string{"g", "v"}, GroupBy: 1, K: 100, SlideWidth: 1000, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for ts := int64(0); ts < 10_000; ts++ {
		if err := w.Observe(ts, []int64{ts % 2, ts % 100}); err != nil {
			t.Fatal(err)
		}
		if ts%2500 == 2499 {
			if _, err := db.Query(`SELECT COUNT(*) FROM lineorder
				WHERE lo_intkey BETWEEN 0 AND ` + strconv.Itoa(int(ts)) + ` APPROX`); err != nil {
				t.Fatal(err)
			}
		}
	}
	groups, err := w.Aggregate(2000, 7999, "v", Count)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, g := range groups {
		total += g.Value.Value
	}
	if total != 6000 {
		t.Fatalf("window count = %v, want 6000", total)
	}
	if db.SampleStoreStats().Samples == 0 {
		t.Fatal("SQL samples were not cached")
	}
}
