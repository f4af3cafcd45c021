package laqy

import (
	"fmt"
	"testing"
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
// and the approximate path, all with string-dictionary and integer
// predicates over encoded SSB columns.
var encodingTestQueries = []string{
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
		return db
	}
	enc, ref := open(false), open(true)

	appendRows := func(db *DB) {
		lo, err := db.catalog.Table("lineorder")
		if err != nil {
			t.Fatal(err)
		}
		b := NewTable("lineorder")
		for _, c := range lo.Columns() {
			// Recycle the first 500 rows as the appended batch.
			b.Int64(c.Name, append([]int64{}, c.Ints[:500]...))
		}
		if err := db.Append("lineorder", b); err != nil {
			t.Fatal(err)
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

	// The encoded DB actually holds less: SSB lineorder is date-clustered,
	// so sealed segments must shrink well below plain.
	st := enc.StorageStats()
	if st.PhysicalBytes >= st.LogicalBytes {
		t.Fatalf("no compression: physical %d >= logical %d", st.PhysicalBytes, st.LogicalBytes)
	}
	refSt := ref.StorageStats()
	if refSt.PhysicalBytes != refSt.LogicalBytes {
		t.Fatalf("disableEncoding DB compressed: %+v", refSt)
	}
}

// TestStorageStatsSSB pins the headline compression claim: the sealed SSB
// lineorder segments, dominated by clustered dates, narrow domains, and
// dictionary codes, hold at most 60% of their plain footprint.
func TestStorageStatsSSB(t *testing.T) {
	db := Open(Config{DefaultK: 64, Seed: 1})
	if err := db.LoadSSB(200_000, 9); err != nil {
		t.Fatal(err)
	}
	lo, err := db.catalog.Table("lineorder")
	if err != nil {
		t.Fatal(err)
	}
	phys, logical := lo.EncodedSizes()
	if logical == 0 || phys*100 > logical*60 {
		t.Fatalf("lineorder physical %d bytes of %d logical (%.0f%%), want <= 60%%",
			phys, logical, 100*float64(phys)/float64(logical))
	}
	// The forced build also lands on the gauges via StorageStats.
	st := db.StorageStats()
	if st.PhysicalBytes == 0 || st.LogicalBytes == 0 || st.PhysicalBytes >= st.LogicalBytes {
		t.Fatalf("storage stats = %+v", st)
	}
}
