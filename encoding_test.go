package laqy

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"laqy/internal/obs"
)

// queryRowsFingerprint renders a result's rows exactly (groups and full
// float64 bits) for bitwise comparisons between the encoded path and the
// disableEncoding reference.
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

// encodingTestQueries sweeps exact paths (fused ungrouped, grouped, joined)
// and the approximate path. The lineorder queries run over columns storage
// leaves plain (LoadSSB shuffles every fact column) beside encoded dimension
// columns; the lineorder_bymonth queries (registerByMonth) run the RLE and
// const kernels, the run-granular fused fold and sample builds over them.
var encodingTestQueries = []string{
	`SELECT SUM(lo_revenue) FROM lineorder_bymonth WHERE lo_ordermonth BETWEEN 199401 AND 199412`,
	`SELECT SUM(lo_revenue), COUNT(*) FROM lineorder_bymonth
		WHERE lo_ordermonth BETWEEN 199306 AND 199705 AND lo_discount BETWEEN 1 AND 3 AND lo_shippriority = 0`,
	`SELECT COUNT(*) FROM lineorder_bymonth WHERE lo_shippriority BETWEEN 1 AND 9`, // const all-fail
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
// order-month order (84 months: runs of hundreds of rows, so lo_ordermonth
// run-length encodes) beside a constant lo_shippriority.
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

// TestEncodingEquivalenceQueries pins whole-query answers over encoded
// storage bitwise to a disableEncoding twin DB fed the same data and seeds,
// including Δ-maintenance: both DBs append mid-run and re-query, so the
// Δ-scan (which starts mid-segment) and the sample merge are covered.
func TestEncodingEquivalenceQueries(t *testing.T) {
	const rows = 50_000
	open := func(disable bool) *DB {
		db := Open(Config{Workers: 1, DefaultK: 128, Seed: 7, disableEncoding: disable})
		if err := db.LoadSSB(rows, 11); err != nil {
			t.Fatal(err)
		}
		registerByMonth(t, db)
		return db
	}
	enc, ref := open(false), open(true)

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
		for qi, q := range encodingTestQueries {
			got, err := enc.Query(q)
			if err != nil {
				t.Fatalf("%s query %d: %v", phase, qi, err)
			}
			want, err := ref.Query(q)
			if err != nil {
				t.Fatalf("%s query %d (reference): %v", phase, qi, err)
			}
			if g, w := queryRowsFingerprint(got), queryRowsFingerprint(want); g != w {
				t.Fatalf("%s query %d: encoded answer differs from disableEncoding reference\nencoded:\n%s\nreference:\n%s",
					phase, qi, g, w)
			}
		}
	}
	runBoth("initial")
	// Δ-maintenance: appended rows land in the open (plain) segment; cached
	// samples extend via a mid-segment Δ-scan on both DBs.
	appendRows(enc)
	appendRows(ref)
	runBoth("post-append")

	// A scan of the encoded DB reads less than the plain bytes (the
	// dimensions' sorted and constant columns encode; the shuffled fact
	// stays plain), and the reference DB never encodes.
	st := enc.StorageStats()
	if st.PhysicalBytes >= st.LogicalBytes {
		t.Fatalf("nothing encoded: physical %d >= logical %d", st.PhysicalBytes, st.LogicalBytes)
	}
	refSt := ref.StorageStats()
	if refSt.PhysicalBytes != refSt.LogicalBytes {
		t.Fatalf("disableEncoding DB compressed: %+v", refSt)
	}
	// The trace says so too: the Δ-scan over the run-length-encoded month
	// column ran its one morsel on the encoded kernels, and the query span
	// carries the scanned table's encoding ratio.
	res, err := enc.Query(`EXPLAIN ANALYZE SELECT lo_discount, SUM(lo_revenue) FROM lineorder_bymonth
		WHERE lo_ordermonth BETWEEN 199301 AND 199612 GROUP BY lo_discount APPROX WITH K 64`)
	if err != nil {
		t.Fatal(err)
	}
	for _, attr := range []string{"mode=partial", "enc_ratio=0.5", "encoded=1 "} {
		if !strings.Contains(res.Explain, attr) {
			t.Fatalf("EXPLAIN ANALYZE lacks %q:\n%s", attr, res.Explain)
		}
	}
	// And the clustered queries did run the encoded kernels on one side only.
	if n := enc.Metrics().Counters[obs.MEngineMorselsEncoded]; n == 0 {
		t.Fatal("no morsel ran an encoded kernel")
	}
	if n := ref.Metrics().Counters[obs.MEngineMorselsEncoded]; n != 0 {
		t.Fatalf("disableEncoding DB ran %d encoded morsels", n)
	}
}

// TestStorageStatsSSB pins what the scan-cost adoption rule leaves true of
// the encoded-bytes ledger on SSB. LoadSSB draws every lineorder column
// independently per row, so no column there has runs and none adopts an
// encoding (bit-packing their narrow domains made scans slower, not
// faster): a scan of lineorder reads its plain bytes. The clustered copy
// (registerByMonth, the layout the benchmark registers as lineorder_bydate)
// run-length encodes its month column and folds its constant one to 16
// bytes, so a scan reads the two shuffled columns of four. Never more than
// plain.
func TestStorageStatsSSB(t *testing.T) {
	db := Open(Config{DefaultK: 64, Seed: 1})
	if err := db.LoadSSB(200_000, 9); err != nil {
		t.Fatal(err)
	}
	lo, err := db.catalog.Table("lineorder")
	if err != nil {
		t.Fatal(err)
	}
	if phys, logical := lo.EncodedSizes(); logical == 0 || phys != logical {
		t.Fatalf("shuffled lineorder: a scan reads %d bytes of %d plain, want all of them", phys, logical)
	}

	registerByMonth(t, db)
	clustered, err := db.catalog.Table("lineorder_bymonth")
	if err != nil {
		t.Fatal(err)
	}
	phys, logical := clustered.EncodedSizes()
	if phys*100 < logical*50 || phys*100 > logical*51 {
		t.Fatalf("lineorder_bymonth: a scan reads %d bytes of %d plain (%.1f%%), want just over half",
			phys, logical, 100*float64(phys)/float64(logical))
	}
	// The forced build also lands on the gauges via StorageStats.
	st := db.StorageStats()
	if st.PhysicalBytes == 0 || st.LogicalBytes == 0 || st.PhysicalBytes >= st.LogicalBytes {
		t.Fatalf("storage stats = %+v", st)
	}
}
