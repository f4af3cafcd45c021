package laqy

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"laqy/internal/obs"
)

// queryRowsFingerprint renders a result's rows exactly (groups and full
// float64 bits) for bitwise comparisons between zone-mapped execution and
// the DisableZoneMaps reference.
func queryRowsFingerprint(res *Result) string {
	out := ""
	for _, row := range res.Rows {
		for _, g := range row.Groups {
			if g.IsString {
				out += g.Str + "|"
			} else {
				out += fmt.Sprintf("%d|", g.Int)
			}
		}
		for _, a := range row.Aggs {
			out += fmt.Sprintf("%x/%x;", a.Value, a.StdErr)
		}
		out += "\n"
	}
	return out
}

// zoneMapTestQueries sweeps exact paths (fused ungrouped, grouped, joined)
// and the approximate path. The lineorder queries run over columns no zone
// map can decide (LoadSSB shuffles every fact column); the
// lineorder_bymonth queries (registerByMonth) skip and fill morsels on the
// clustered month column and decide the constant one whole, under the fused
// fold, the group-by sink and sample builds.
var zoneMapTestQueries = []string{
	`SELECT SUM(lo_revenue) FROM lineorder_bymonth WHERE lo_ordermonth BETWEEN 199401 AND 199412`,
	`SELECT SUM(lo_revenue), COUNT(*) FROM lineorder_bymonth
		WHERE lo_ordermonth BETWEEN 199306 AND 199705 AND lo_discount BETWEEN 1 AND 3 AND lo_shippriority = 0`,
	`SELECT COUNT(*) FROM lineorder_bymonth WHERE lo_shippriority BETWEEN 1 AND 9`, // const all-fail: skipped
	`SELECT SUM(lo_revenue), COUNT(*) FROM lineorder_bymonth
		WHERE lo_ordermonth BETWEEN 199201 AND 199812 AND lo_shippriority = 0`, // covering: full, folded
	`SELECT lo_discount, SUM(lo_revenue) FROM lineorder_bymonth
		WHERE lo_ordermonth BETWEEN 199501 AND 199612 GROUP BY lo_discount`,
	`SELECT lo_discount, SUM(lo_revenue) FROM lineorder_bymonth
		WHERE lo_ordermonth BETWEEN 199501 AND 199612 GROUP BY lo_discount APPROX WITH K 64`,
	`SELECT SUM(lo_revenue) FROM lineorder WHERE lo_orderdate BETWEEN 20070101 AND 20071231`,
	`SELECT SUM(lo_revenue), COUNT(*), AVG(lo_extendedprice) FROM lineorder
		WHERE lo_orderdate BETWEEN 20070101 AND 20071231 AND lo_discount BETWEEN 1 AND 3
		AND lo_quantity < 25`,
	`SELECT COUNT(*) FROM lineorder WHERE lo_quantity BETWEEN 60 AND 70`, // empty
	`SELECT SUM(lo_revenue) FROM lineorder WHERE lo_discount BETWEEN 1 AND 3`,
	`SELECT lo_quantity, SUM(lo_revenue) FROM lineorder
		WHERE lo_intkey BETWEEN 0 AND 20000 GROUP BY lo_quantity`,
	`SELECT d_year, SUM(lo_revenue) FROM lineorder, date
		WHERE lo_orderdate = d_datekey AND lo_discount BETWEEN 1 AND 3 GROUP BY d_year`,
	`SELECT lo_quantity, SUM(lo_revenue) FROM lineorder
		WHERE lo_intkey BETWEEN 0 AND 20000 GROUP BY lo_quantity APPROX WITH K 64`,
}

// registerByMonth registers lineorder_bymonth: three lineorder columns in
// order-month order (84 months, so lo_ordermonth's zones are tight and
// disjoint) beside a constant lo_shippriority.
func registerByMonth(t *testing.T, db *DB) {
	t.Helper()
	lo, err := db.catalog.Table("lineorder")
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, lo.NumRows())
	for i := range order {
		order[i] = i
	}
	dates := lo.Column("lo_orderdate").Ints
	sort.SliceStable(order, func(a, b int) bool { return dates[order[a]]/100 < dates[order[b]]/100 })
	b := NewTable("lineorder_bymonth")
	for _, col := range []struct {
		name, src string
		div       int64
	}{{"lo_ordermonth", "lo_orderdate", 100}, {"lo_discount", "lo_discount", 1}, {"lo_revenue", "lo_revenue", 1}} {
		src := lo.Column(col.src).Ints
		vals := make([]int64, len(order))
		for i, row := range order {
			vals[i] = src[row] / col.div
		}
		b.Int64(col.name, vals)
	}
	b.Int64("lo_shippriority", make([]int64, len(order)))
	if err := db.Register(b); err != nil {
		t.Fatal(err)
	}
}

// queryWithoutZoneMaps is db.Query with the engine's oracle switch thrown:
// the same parse, plan and execute, every morsel filtered per row.
func queryWithoutZoneMaps(db *DB, text string) (*Result, error) {
	plan, parseStart, parseEnd, planEnd, err := db.parsePlan(text)
	if err != nil {
		return nil, err
	}
	plan.Query.DisableZoneMaps = true
	return db.execute(context.Background(), plan, QueryOptions{}, parseStart, parseEnd, planEnd)
}

// TestZoneMapEquivalenceQueries pins whole-query answers bitwise to a twin
// DB fed the same data and seeds and queried with zone maps off, including
// Δ-maintenance: both DBs append mid-run and re-query, so the Δ-scan (whose
// morsels straddle the seal between the loaded segment and the open one)
// and the sample merge are covered.
func TestZoneMapEquivalenceQueries(t *testing.T) {
	const rows = 50_000
	open := func() *DB {
		db := Open(Config{Workers: 1, DefaultK: 128, Seed: 7})
		if err := db.LoadSSB(rows, 11); err != nil {
			t.Fatal(err)
		}
		registerByMonth(t, db)
		return db
	}
	zm, ref := open(), open()

	appendRows := func(db *DB) {
		for _, name := range []string{"lineorder", "lineorder_bymonth"} {
			tab, err := db.catalog.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			b := NewTable(name)
			for _, c := range tab.Columns() {
				// Recycle the first 500 rows as the appended batch.
				b.Int64(c.Name, append([]int64{}, c.Ints[:500]...))
			}
			if err := db.Append(name, b); err != nil {
				t.Fatal(err)
			}
		}
	}

	runBoth := func(phase string) {
		for qi, q := range zoneMapTestQueries {
			got, err := zm.Query(q)
			if err != nil {
				t.Fatalf("%s query %d: %v", phase, qi, err)
			}
			want, err := queryWithoutZoneMaps(ref, q)
			if err != nil {
				t.Fatalf("%s query %d (reference): %v", phase, qi, err)
			}
			if got.Mode != want.Mode {
				t.Fatalf("%s query %d: mode %s, reference %s", phase, qi, got.Mode, want.Mode)
			}
			if g, w := queryRowsFingerprint(got), queryRowsFingerprint(want); g != w {
				t.Fatalf("%s query %d: answer differs from the DisableZoneMaps reference\nzone maps:\n%s\nreference:\n%s",
					phase, qi, g, w)
			}
		}
	}
	runBoth("initial")
	// Δ-maintenance: appended rows land in the open segment; cached samples
	// extend via a mid-morsel Δ-scan on both DBs.
	appendRows(zm)
	appendRows(ref)
	runBoth("post-append")

	// The clustered queries did skip, fill and fold morsels on one side only.
	for _, name := range []string{obs.MEngineMorselsPruned, obs.MEngineMorselsFull, obs.MEngineMorselsFused} {
		if n := zm.Metrics().Counters[name]; n == 0 {
			t.Fatalf("%s did not move", name)
		}
		if n := ref.Metrics().Counters[name]; n != 0 {
			t.Fatalf("reference DB moved %s to %d", name, n)
		}
	}
	// The trace says so too: the widened month range is a partial reuse
	// whose Δ-scan reads one morsel.
	res, err := zm.Query(`EXPLAIN ANALYZE SELECT lo_discount, SUM(lo_revenue) FROM lineorder_bymonth
		WHERE lo_ordermonth BETWEEN 199301 AND 199612 GROUP BY lo_discount APPROX WITH K 64`)
	if err != nil {
		t.Fatal(err)
	}
	for _, attr := range []string{"mode=partial", "morsels=1 "} {
		if !strings.Contains(res.Explain, attr) {
			t.Fatalf("EXPLAIN ANALYZE lacks %q:\n%s", attr, res.Explain)
		}
	}
	for _, attr := range []string{"encoded=", "enc_ratio="} {
		if strings.Contains(res.Explain, attr) {
			t.Fatalf("EXPLAIN ANALYZE still reports %q:\n%s", attr, res.Explain)
		}
	}
}

// TestStorageStatsSSB: every column is a plain int64 vector and nothing
// else, so physical = logical = rows × columns × 8 over the registered
// tables, and the logical-bytes gauge tracks registrations and appends
// without anyone asking for stats.
func TestStorageStatsSSB(t *testing.T) {
	db := Open(Config{DefaultK: 64, Seed: 1})
	if err := db.LoadSSB(20_000, 9); err != nil {
		t.Fatal(err)
	}
	registerByMonth(t, db)
	check := func(when string) {
		t.Helper()
		var want int64
		for _, name := range db.catalog.Names() {
			tab, err := db.catalog.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			want += int64(tab.NumRows()) * int64(len(tab.Columns())) * 8
		}
		if st := db.StorageStats(); want == 0 || st.LogicalBytes != want || st.PhysicalBytes != want {
			t.Fatalf("%s: storage stats = %+v, want both %d", when, st, want)
		}
		if got := db.Metrics().Gauges[obs.MStorageLogicalBytes]; got != want {
			t.Fatalf("%s: %s = %d, want %d", when, obs.MStorageLogicalBytes, got, want)
		}
	}
	check("loaded")
	b := NewTable("lineorder_bymonth")
	for _, name := range []string{"lo_ordermonth", "lo_discount", "lo_revenue", "lo_shippriority"} {
		b.Int64(name, make([]int64, 300))
	}
	if err := db.Append("lineorder_bymonth", b); err != nil {
		t.Fatal(err)
	}
	check("appended")
}
