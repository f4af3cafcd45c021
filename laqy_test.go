package laqy

import (
	"context"
	"maps"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"laqy/internal/sample"
	"laqy/internal/storage"
)

func openSSB(t *testing.T, rows int) *DB {
	t.Helper()
	db := Open(Config{Workers: 2, DefaultK: 256, Seed: 9})
	if err := db.LoadSSB(rows, 4); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOpenAndRegister(t *testing.T) {
	db := Open(Config{})
	err := db.Register(NewTable("t").
		Int64("id", []int64{1, 2, 3}).
		String("name", []string{"a", "b", "a"}))
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Tables(); len(got) != 1 || got[0] != "t" {
		t.Fatalf("Tables() = %v", got)
	}
	n, err := db.NumRows("t")
	if err != nil || n != 3 {
		t.Fatalf("NumRows = %d, %v", n, err)
	}
	if _, err := db.NumRows("missing"); err == nil {
		t.Fatal("unknown table must error")
	}
	// Mismatched column lengths must fail.
	err = db.Register(NewTable("bad").
		Int64("a", []int64{1}).
		Int64("b", []int64{1, 2}))
	if err == nil {
		t.Fatal("mismatched lengths must error")
	}
}

func TestExactQuery(t *testing.T) {
	db := Open(Config{Workers: 2})
	vals := make([]int64, 1000)
	grp := make([]string, 1000)
	names := []string{"red", "green", "blue"}
	for i := range vals {
		vals[i] = int64(i)
		grp[i] = names[i%3]
	}
	if err := db.Register(NewTable("t").Int64("v", vals).String("color", grp)); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT color, SUM(v), COUNT(*) FROM t GROUP BY color")
	if err != nil {
		t.Fatal(err)
	}
	if res.Approximate || res.Mode != ModeExact {
		t.Fatalf("mode = %q", res.Mode)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if res.AggColumns[0] != "SUM(v)" || res.AggColumns[1] != "COUNT(*)" {
		t.Fatalf("agg columns = %v", res.AggColumns)
	}
	var totalSum, totalCount float64
	for _, row := range res.Rows {
		if !row.Groups[0].IsString {
			t.Fatal("color should decode to a string")
		}
		if !row.Aggs[0].Exact {
			t.Fatal("exact query must return exact aggregates")
		}
		totalSum += row.Aggs[0].Value
		totalCount += row.Aggs[1].Value
	}
	if totalSum != 999*1000/2 || totalCount != 1000 {
		t.Fatalf("sum=%v count=%v", totalSum, totalCount)
	}
	// An ungrouped query whose WHERE selects nothing answers with zero
	// rows, not one row of zeros, whether it folds into the scan (SUM) or
	// runs the group-by sink (MIN).
	for _, q := range []string{
		"SELECT SUM(v) FROM t WHERE v BETWEEN 5000 AND 6000",
		"SELECT MIN(v) FROM t WHERE v BETWEEN 5000 AND 6000",
	} {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Mode != ModeExact || len(res.Rows) != 0 {
			t.Fatalf("%s: mode %q, %d rows, want exact with none", q, res.Mode, len(res.Rows))
		}
	}
}

func TestApproxAccuracy(t *testing.T) {
	db := openSSB(t, 60000)
	exact, err := db.Query(`
		SELECT d_year, SUM(lo_revenue) FROM lineorder, date
		WHERE lo_orderdate = d_datekey GROUP BY d_year`)
	if err != nil {
		t.Fatal(err)
	}
	approxRes, err := db.Query(`
		SELECT d_year, SUM(lo_revenue) FROM lineorder, date
		WHERE lo_orderdate = d_datekey GROUP BY d_year APPROX WITH K 2000`)
	if err != nil {
		t.Fatal(err)
	}
	if !approxRes.Approximate || approxRes.Mode != ModeOnline {
		t.Fatalf("mode = %q", approxRes.Mode)
	}
	if len(approxRes.Rows) != len(exact.Rows) {
		t.Fatalf("approx has %d groups, exact %d", len(approxRes.Rows), len(exact.Rows))
	}
	for i, row := range approxRes.Rows {
		want := exact.Rows[i].Aggs[0].Value
		got := row.Aggs[0].Value
		if math.Abs(got-want)/want > 0.10 {
			t.Fatalf("year %v: approx %.0f vs exact %.0f", row.Groups[0], got, want)
		}
		if row.Aggs[0].StdErr <= 0 || row.Aggs[0].Support == 0 {
			t.Fatalf("estimate missing uncertainty: %+v", row.Aggs[0])
		}
		lo, hi, err := row.Aggs[0].ConfidenceInterval(0.95)
		if err != nil {
			t.Fatal(err)
		}
		if lo > got || hi < got {
			t.Fatal("CI must contain the point estimate")
		}
	}
}

func TestLazyReuseAcrossQueries(t *testing.T) {
	db := openSSB(t, 40000)
	q := func(hi int) string {
		return `SELECT lo_orderdate, SUM(lo_revenue) FROM lineorder
			WHERE lo_intkey BETWEEN 0 AND ` + strconv.Itoa(hi) + `
			GROUP BY lo_orderdate APPROX WITH K 64`
	}
	r1, err := db.Query(q(9999))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Mode != ModeOnline {
		t.Fatalf("first query mode = %q", r1.Mode)
	}
	// Same query again: full reuse, no scan.
	r2, err := db.Query(q(9999))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Mode != ModeOffline {
		t.Fatalf("repeat query mode = %q", r2.Mode)
	}
	if r2.Stats.RowsScanned != 0 {
		t.Fatal("offline reuse must not scan")
	}
	// Expanded range: partial reuse, delta scan only.
	r3, err := db.Query(q(19999))
	if err != nil {
		t.Fatal(err)
	}
	if r3.Mode != ModePartial {
		t.Fatalf("expanded query mode = %q", r3.Mode)
	}
	if r3.Stats.RowsSelected != 10000 {
		t.Fatalf("delta selected %d rows, want 10000", r3.Stats.RowsSelected)
	}
	stats := db.SampleStoreStats()
	if stats.Samples != 1 || stats.FullReuses != 1 || stats.PartialReuses != 1 {
		t.Fatalf("store stats = %+v", stats)
	}
	// Results from the merged sample stay accurate.
	exact, err := db.Query(`SELECT lo_orderdate, SUM(lo_revenue) FROM lineorder
		WHERE lo_intkey BETWEEN 0 AND 19999 GROUP BY lo_orderdate`)
	if err != nil {
		t.Fatal(err)
	}
	var approxTotal, exactTotal float64
	for _, row := range r3.Rows {
		approxTotal += row.Aggs[0].Value
	}
	for _, row := range exact.Rows {
		exactTotal += row.Aggs[0].Value
	}
	if math.Abs(approxTotal-exactTotal)/exactTotal > 0.10 {
		t.Fatalf("merged estimate %.0f vs exact %.0f", approxTotal, exactTotal)
	}
}

// TestPartialReuseClaimsWhatItStored pins the partial-reuse coverage claim.
// The stored entry is unconstrained on f_val; the second query is wider on
// f_key and narrower on f_val. Its Δ must be sampled under the entry's
// (absent) f_val constraint, because the merged entry goes on claiming
// every f_val: a Δ built under the query's f_val bound would leave an entry
// claiming f_key in [0, 19999] at the weight of f_val <= 12000, and the third
// query, a full reuse of it, would under-count.
func TestPartialReuseClaimsWhatItStored(t *testing.T) {
	const n = 20000
	db := Open(Config{Workers: 2, Seed: 5})
	key, grp := make([]int64, n), make([]int64, n)
	for i := range key {
		key[i], grp[i] = int64(i), int64(i%4)
	}
	if err := db.Register(NewTable("t").Int64("f_key", key).Int64("f_val", key).Int64("f_g", grp)); err != nil {
		t.Fatal(err)
	}
	count := func(where string, mode Mode) float64 {
		t.Helper()
		res, err := db.Query(`SELECT f_g, SUM(f_val), COUNT(*) FROM t WHERE ` + where + ` GROUP BY f_g APPROX WITH K 64`)
		if err != nil {
			t.Fatal(err)
		}
		if res.Mode != mode {
			t.Fatalf("%s: mode %q, want %q", where, res.Mode, mode)
		}
		var total float64
		for _, row := range res.Rows {
			total += row.Aggs[1].Value
		}
		return total
	}
	if got := count("f_key BETWEEN 0 AND 9999", ModeOnline); got != 10000 {
		t.Fatalf("online COUNT = %v, want 10000", got)
	}
	// Tightened to f_val <= 12000 over the widened entry: an estimate.
	if got := count("f_key BETWEEN 0 AND 19999 AND f_val <= 12000", ModePartial); math.Abs(got-12001) > 0.2*12001 {
		t.Fatalf("partial COUNT = %v, want about 12001", got)
	}
	if got := count("f_key BETWEEN 0 AND 19999", ModeOffline); got != n {
		t.Fatalf("offline COUNT over the widened entry = %v, want %d", got, n)
	}
}

// TestDuplicateDimensionKeyRefused: the engine joins a dimension key to a
// fact foreign key, so a key that repeats among the dimension rows a join
// keeps has no single row to join. The query must fail naming the table and
// the key, not silently join one of the duplicates.
func TestDuplicateDimensionKeyRefused(t *testing.T) {
	db := Open(Config{Workers: 2})
	if err := db.Register(NewTable("f").Int64("f_fk", []int64{1, 1, 2}).Int64("f_v", []int64{10, 20, 30})); err != nil {
		t.Fatal(err)
	}
	if err := db.Register(NewTable("d").Int64("d_key", []int64{1, 1, 2}).Int64("d_attr", []int64{7, 8, 9})); err != nil {
		t.Fatal(err)
	}
	_, err := db.Query(`SELECT d_attr, SUM(f_v) FROM f, d WHERE f_fk = d_key GROUP BY d_attr`)
	if err == nil || !strings.Contains(err.Error(), `"d"`) || !strings.Contains(err.Error(), "key 1") {
		t.Fatalf("duplicate dimension key: err = %v, want one naming table \"d\" and key 1", err)
	}
	// A filter that keeps one row per key joins as usual.
	res, err := db.Query(`SELECT d_attr, SUM(f_v) FROM f, d WHERE f_fk = d_key AND d_attr >= 8 GROUP BY d_attr`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0].Aggs[0].Value != 30 || res.Rows[1].Aggs[0].Value != 30 {
		t.Fatalf("filtered join: %+v", res.Rows)
	}
}

func TestClearSamples(t *testing.T) {
	db := openSSB(t, 20000)
	if _, err := db.Query(`SELECT lo_orderdate, SUM(lo_revenue) FROM lineorder
		WHERE lo_intkey BETWEEN 0 AND 999 GROUP BY lo_orderdate APPROX`); err != nil {
		t.Fatal(err)
	}
	if db.SampleStoreStats().Samples != 1 {
		t.Fatal("sample not stored")
	}
	db.ClearSamples()
	if db.SampleStoreStats().Samples != 0 {
		t.Fatal("ClearSamples failed")
	}
}

func TestGlobalAggregateApprox(t *testing.T) {
	db := openSSB(t, 30000)
	res, err := db.Query(`SELECT SUM(lo_revenue), COUNT(*) FROM lineorder
		WHERE lo_intkey BETWEEN 0 AND 14999 APPROX WITH K 2000`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if res.Rows[0].Aggs[1].Value != 15000 {
		t.Fatalf("approx COUNT(*) = %v, want exact 15000 (weight-based)", res.Rows[0].Aggs[1].Value)
	}
	exact, err := db.Query(`SELECT SUM(lo_revenue) FROM lineorder WHERE lo_intkey BETWEEN 0 AND 14999`)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Rows[0].Aggs[0].Value-exact.Rows[0].Aggs[0].Value)/exact.Rows[0].Aggs[0].Value > 0.10 {
		t.Fatalf("approx %.0f vs exact %.0f", res.Rows[0].Aggs[0].Value, exact.Rows[0].Aggs[0].Value)
	}
}

func TestQ2StyleJoinApprox(t *testing.T) {
	db := openSSB(t, 50000)
	text := `SELECT d_year, SUM(lo_revenue)
		FROM lineorder, date, supplier, part
		WHERE lo_orderdate = d_datekey AND lo_suppkey = s_suppkey
		  AND lo_partkey = p_partkey AND s_region = 'AMERICA'
		  AND p_category = 'MFGR#12' AND lo_intkey BETWEEN 0 AND 24999
		GROUP BY d_year APPROX WITH K 500`
	r1, err := db.Query(text)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Mode != ModeOnline {
		t.Fatalf("mode = %q", r1.Mode)
	}
	// Same join query again: offline reuse despite the joins.
	r2, err := db.Query(text)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Mode != ModeOffline {
		t.Fatalf("repeat mode = %q", r2.Mode)
	}
	// A different region is a predicate mismatch on two columns → online.
	r3, err := db.Query(`SELECT d_year, SUM(lo_revenue)
		FROM lineorder, date, supplier, part
		WHERE lo_orderdate = d_datekey AND lo_suppkey = s_suppkey
		  AND lo_partkey = p_partkey AND s_region = 'ASIA'
		  AND p_category = 'MFGR#12' AND lo_intkey BETWEEN 30000 AND 39999
		GROUP BY d_year APPROX WITH K 500`)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Mode != ModeOnline {
		t.Fatalf("different region+range mode = %q", r3.Mode)
	}
}

func TestQueryErrors(t *testing.T) {
	db := openSSB(t, 1000)
	for _, q := range []string{
		"not sql at all",
		"SELECT SUM(nope) FROM lineorder",
		"SELECT SUM(lo_revenue) FROM nope",
	} {
		if _, err := db.Query(q); err == nil {
			t.Errorf("no error for %q", q)
		}
	}
}

func TestReproducibility(t *testing.T) {
	run := func() float64 {
		db := Open(Config{Workers: 1, Seed: 123})
		if err := db.LoadSSB(20000, 4); err != nil {
			t.Fatal(err)
		}
		res, err := db.Query(`SELECT SUM(lo_revenue) FROM lineorder
			WHERE lo_intkey BETWEEN 0 AND 9999 APPROX WITH K 100`)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0].Aggs[0].Value
	}
	if run() != run() {
		t.Fatal("identical seeds and queries must reproduce identical estimates")
	}
}

func TestSaveLoadSamplesAcrossSessions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "samples.laqy")
	q := `SELECT lo_orderdate, SUM(lo_revenue) FROM lineorder
		WHERE lo_intkey BETWEEN 0 AND 9999 GROUP BY lo_orderdate APPROX WITH K 64`

	// Session 1: build a sample and persist it.
	db1 := Open(Config{Workers: 2, Seed: 9})
	if err := db1.LoadSSB(30000, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := db1.Query(q); err != nil {
		t.Fatal(err)
	}
	if err := db1.SaveSamples(path); err != nil {
		t.Fatal(err)
	}

	// Session 2: same data, restored samples — the query is served
	// offline with no scan.
	db2 := Open(Config{Workers: 2, Seed: 9})
	if err := db2.LoadSSB(30000, 4); err != nil {
		t.Fatal(err)
	}
	if err := db2.LoadSamples(path); err != nil {
		t.Fatal(err)
	}
	res, err := db2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeOffline {
		t.Fatalf("restored sample not reused: mode = %q", res.Mode)
	}
	if res.Stats.RowsScanned != 0 {
		t.Fatal("offline reuse after load must not scan")
	}
	// And partial extension still works on the restored sample.
	res2, err := db2.Query(`SELECT lo_orderdate, SUM(lo_revenue) FROM lineorder
		WHERE lo_intkey BETWEEN 0 AND 19999 GROUP BY lo_orderdate APPROX WITH K 64`)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Mode != ModePartial {
		t.Fatalf("extension after load: mode = %q", res2.Mode)
	}
	if err := db2.LoadSamples(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestLoadedSampleMaintainsAcrossARelayout: a stored sample records how
// many of its fact table's rows it has absorbed, not where the segments
// cut them. Saved over 200 000-row segments, loaded by a DB that lays the
// same table out in 70 000-row segments and then given an append, it
// counts every row once.
func TestLoadedSampleMaintainsAcrossARelayout(t *testing.T) {
	const rows, extra = 300_000, 1_000
	path := filepath.Join(t.TempDir(), "samples.laqy")
	const q = `SELECT COUNT(*) FROM t APPROX WITH K 64`

	db1 := openKeys(t, Config{Workers: 1, SegmentRows: 200_000}, rows)
	if _, err := db1.Query(q); err != nil {
		t.Fatal(err)
	}
	if err := db1.SaveSamples(path); err != nil {
		t.Fatal(err)
	}

	db2 := openKeys(t, Config{Workers: 1, SegmentRows: 70_000}, rows)
	if err := db2.LoadSamples(path); err != nil {
		t.Fatal(err)
	}
	if err := db2.Append("t", NewTable("t").Int64("key", keyRun(rows, extra)).Int64("v", keyRun(rows, extra))); err != nil {
		t.Fatal(err)
	}
	if w := storedWeight(db2); len(w) != 1 || w[0] != rows+extra {
		t.Fatalf("stored weight %v after the append, want [%d]", w, rows+extra)
	}
	res, err := db2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeOffline || res.Rows[0].Aggs[0].Value != rows+extra {
		t.Fatalf("COUNT(*) = %v (%s), want %d offline", res.Rows[0].Aggs[0].Value, res.Mode, rows+extra)
	}
}

func TestErrorBoundClause(t *testing.T) {
	db := openSSB(t, 40000)
	// A bound so tight that the required reservoir capacity exceeds the
	// auto-resize cap: the engine must fall back to exact execution
	// instead of returning a miss-specified answer.
	strict, err := db.Query(`SELECT d_year, SUM(lo_revenue) FROM lineorder, date
		WHERE lo_orderdate = d_datekey
		GROUP BY d_year APPROX WITH K 16 ERROR 0.001 CONFIDENCE 99`)
	if err != nil {
		t.Fatal(err)
	}
	if strict.Mode != ModeExactFallback {
		t.Fatalf("mode = %q, want exact_fallback", strict.Mode)
	}
	for _, row := range strict.Rows {
		if !row.Aggs[0].Exact {
			t.Fatal("fallback must return exact aggregates")
		}
	}
	// A loose bound with a big sample is met approximately.
	db.ClearSamples()
	loose, err := db.Query(`SELECT d_year, SUM(lo_revenue) FROM lineorder, date
		WHERE lo_orderdate = d_datekey
		GROUP BY d_year APPROX WITH K 4000 ERROR 20`)
	if err != nil {
		t.Fatal(err)
	}
	if loose.Mode != ModeOnline {
		t.Fatalf("mode = %q, want online (bound met)", loose.Mode)
	}
}

func TestErrorBoundParseErrors(t *testing.T) {
	db := openSSB(t, 1000)
	for _, q := range []string{
		"SELECT SUM(lo_revenue) FROM lineorder APPROX ERROR 0",
		"SELECT SUM(lo_revenue) FROM lineorder APPROX ERROR 100",
		"SELECT SUM(lo_revenue) FROM lineorder APPROX ERROR 5 CONFIDENCE 0",
		"SELECT SUM(lo_revenue) FROM lineorder APPROX ERROR xyz",
	} {
		if _, err := db.Query(q); err == nil {
			t.Errorf("no error for %q", q)
		}
	}
}

func TestConcurrentApproxQueries(t *testing.T) {
	// Concurrent queries with overlapping ranges exercise simultaneous
	// offline reads, partial merges, and online builds on the same store
	// entry. Run with -race.
	db := openSSB(t, 30000)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				hi := 1000 + (g*8+i)*350
				_, err := db.Query(`SELECT lo_orderdate, SUM(lo_revenue) FROM lineorder
					WHERE lo_intkey BETWEEN 0 AND ` + strconv.Itoa(hi) + `
					GROUP BY lo_orderdate APPROX WITH K 32`)
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// After the dust settles, a query inside any covered range answers
	// consistently.
	res, err := db.Query(`SELECT lo_orderdate, SUM(lo_revenue) FROM lineorder
		WHERE lo_intkey BETWEEN 0 AND 999 GROUP BY lo_orderdate APPROX WITH K 32`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mode.Approximate() {
		t.Fatalf("mode = %v, want an approximate mode", res.Mode)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	db := openSSB(t, 20000)
	res, err := db.Query(`SELECT lo_quantity, SUM(lo_revenue) FROM lineorder
		GROUP BY lo_quantity ORDER BY SUM(lo_revenue) DESC LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows, want 5", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Aggs[0].Value > res.Rows[i-1].Aggs[0].Value {
			t.Fatal("rows not descending by SUM")
		}
	}
	// Order by grouping column ascending (default).
	res2, err := db.Query(`SELECT lo_quantity, COUNT(*) FROM lineorder
		GROUP BY lo_quantity ORDER BY lo_quantity LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 3 || res2.Rows[0].Groups[0].Int != 1 ||
		res2.Rows[1].Groups[0].Int != 2 || res2.Rows[2].Groups[0].Int != 3 {
		t.Fatalf("rows = %+v", res2.Rows)
	}
	// ORDER BY works with APPROX too.
	res3, err := db.Query(`SELECT lo_quantity, SUM(lo_revenue) FROM lineorder
		GROUP BY lo_quantity ORDER BY SUM(lo_revenue) DESC LIMIT 3 APPROX WITH K 200`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Rows) != 3 || !res3.Approximate {
		t.Fatalf("approx ordered rows = %d", len(res3.Rows))
	}
	// String group ordering.
	res4, err := db.Query(`SELECT s_region, COUNT(*) FROM lineorder, supplier
		WHERE lo_suppkey = s_suppkey GROUP BY s_region ORDER BY s_region DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if res4.Rows[0].Groups[0].Str != "MIDDLE EAST" {
		t.Fatalf("first region = %q", res4.Rows[0].Groups[0].Str)
	}
}

func TestOrderByValidation(t *testing.T) {
	db := openSSB(t, 1000)
	for _, q := range []string{
		// Aggregate not in the select list.
		`SELECT lo_quantity, SUM(lo_revenue) FROM lineorder GROUP BY lo_quantity ORDER BY AVG(lo_revenue)`,
		// Column not in GROUP BY.
		`SELECT lo_quantity, SUM(lo_revenue) FROM lineorder GROUP BY lo_quantity ORDER BY lo_tax`,
		// Bad limit.
		`SELECT SUM(lo_revenue) FROM lineorder LIMIT 0`,
		`SELECT SUM(lo_revenue) FROM lineorder LIMIT abc`,
	} {
		if _, err := db.Query(q); err == nil {
			t.Errorf("no error for %q", q)
		}
	}
}

func TestAppendMaintainsSamples(t *testing.T) {
	db := Open(Config{Workers: 2, Seed: 3})
	n := 20000
	vals := make([]int64, n)
	keys := make([]int64, n)
	grp := make([]string, n)
	names := []string{"a", "b"}
	for i := range vals {
		keys[i] = int64(i)
		vals[i] = int64(i)
		grp[i] = names[i%2]
	}
	if err := db.Register(NewTable("t").Int64("key", keys).Int64("v", vals).String("g", grp)); err != nil {
		t.Fatal(err)
	}
	// Build a sample covering future keys too.
	q := `SELECT g, SUM(v) FROM t WHERE key BETWEEN 0 AND 39999 GROUP BY g APPROX WITH K 5000`
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}

	// Append 10000 more rows.
	extra := 10000
	keys2 := make([]int64, extra)
	vals2 := make([]int64, extra)
	grp2 := make([]string, extra)
	for i := range keys2 {
		keys2[i] = int64(n + i)
		vals2[i] = int64(n + i)
		grp2[i] = names[i%2]
	}
	if err := db.Append("t", NewTable("t").Int64("key", keys2).Int64("v", vals2).String("g", grp2)); err != nil {
		t.Fatal(err)
	}
	got, err := db.NumRows("t")
	if err != nil || got != n+extra {
		t.Fatalf("rows after append = %d, %v", got, err)
	}

	// The maintained sample answers the covering query offline, with the
	// appended rows included (k is large enough that the answer is exact).
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeOffline {
		t.Fatalf("mode after append = %q", res.Mode)
	}
	var total float64
	for _, row := range res.Rows {
		total += row.Aggs[0].Value
	}
	want := float64(n+extra-1) * float64(n+extra) / 2
	if math.Abs(total-want)/want > 0.05 {
		t.Fatalf("maintained estimate %v, want ≈%v", total, want)
	}
}

// TestAppendBesidePartialReuse: appends maintain the stored samples while
// widening-range queries Δ-merge into them; both draw their merge RNG
// substreams from the sampler's one generator. Beside them, narrower queries
// answer offline from the very entry being merged: each merge reads the
// entry's sealed sample while it writes a new one, so a write that reached
// the entry's storage would race with these readers. Run with -race (make
// race).
func TestAppendBesidePartialReuse(t *testing.T) {
	db := Open(Config{Workers: 2, Seed: 3})
	const n, batch, rounds = 8000, 500, 12
	column := func(from, count int) []int64 {
		out := make([]int64, count)
		for i := range out {
			out[i] = int64(from + i)
		}
		return out
	}
	if err := db.Register(NewTable("t").Int64("key", column(0, n)).Int64("v", column(0, n))); err != nil {
		t.Fatal(err)
	}
	query := func(hi int) error {
		_, err := db.Query(`SELECT SUM(v) FROM t WHERE key BETWEEN 0 AND ` + strconv.Itoa(hi) + ` APPROX WITH K 64`)
		return err
	}
	if err := query(1000); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	writersDone := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(lo int) {
			defer readers.Done()
			for {
				res, err := db.Query(`SELECT SUM(v), COUNT(*) FROM t WHERE key BETWEEN ` + strconv.Itoa(lo) + ` AND 900 APPROX WITH K 64`)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Mode != ModeOffline || len(res.Rows) != 1 || res.Rows[0].Aggs[0].Support == 0 {
					t.Errorf("reader beside the merges: mode %q, %d rows", res.Mode, len(res.Rows))
					return
				}
				select {
				case <-writersDone:
					return
				default:
				}
			}
		}(100 * (r + 1))
	}
	go func() {
		for i := 0; i < rounds; i++ {
			from := n + i*batch
			if err := db.Append("t", NewTable("t").Int64("key", column(from, batch)).Int64("v", column(from, batch))); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	go func() {
		for i := 1; i <= rounds; i++ {
			if err := query(1000 + i*400); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	var failed error
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			failed = err
		}
	}
	close(writersDone)
	readers.Wait()
	if failed != nil {
		t.Fatal(failed)
	}
}

func TestAppendValidation(t *testing.T) {
	db := Open(Config{})
	if err := db.Register(NewTable("t").Int64("a", []int64{1}).String("s", []string{"x"})); err != nil {
		t.Fatal(err)
	}
	cases := []*TableBuilder{
		NewTable("t").Int64("a", []int64{2}),                                // missing column
		NewTable("t").Int64("a", []int64{2}).Int64("s", []int64{1}),         // wrong kind
		NewTable("t").Int64("wrong", []int64{2}).String("s", []string{"x"}), // wrong name
		NewTable("t").Int64("a", []int64{2}).String("s", []string{"new"}),   // new dict value
		NewTable("t").Int64("a", []int64{2, 3}).String("s", []string{"x"}),  // ragged
	}
	for i, b := range cases {
		if err := db.Append("t", b); err == nil {
			t.Errorf("case %d: append should fail", i)
		}
	}
	if err := db.Append("missing", NewTable("missing").Int64("a", []int64{1})); err == nil {
		t.Fatal("append to unknown table must fail")
	}
	// A valid append in arbitrary column order works.
	if err := db.Append("t", NewTable("t").String("s", []string{"x"}).Int64("a", []int64{9})); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.NumRows("t"); n != 2 {
		t.Fatalf("rows = %d", n)
	}
}

// joinedYearQuery is a d_year join over a lo_intkey range; aggs is its
// select list past d_year.
func joinedYearQuery(aggs string) string {
	return `SELECT d_year, ` + aggs + ` FROM lineorder, date
		WHERE lo_orderdate = d_datekey AND lo_intkey BETWEEN 0 AND 9999
		GROUP BY d_year`
}

// appendCopiedRows appends copies of the table's first n rows.
func appendCopiedRows(t *testing.T, db *DB, table string, n int) {
	t.Helper()
	tab, err := db.catalog.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	b := NewTable(table)
	for _, c := range tab.Columns() {
		if c.Kind == storage.KindString {
			vals := make([]string, n)
			for i := range vals {
				vals[i] = c.StringAt(i)
			}
			b.String(c.Name, vals)
			continue
		}
		b.Int64(c.Name, append([]int64(nil), c.Ints[:n]...))
	}
	if err := db.Append(table, b); err != nil {
		t.Fatal(err)
	}
}

// TestAppendMaintainsJoinSamples: a fact append Δ-maintains the samples
// that join the fact with dimensions, not only the scan-level ones. The
// join query then answers offline with no rows scanned, and the maintained
// entry's stratum weights are the exact joined counts of the grown table.
func TestAppendMaintainsJoinSamples(t *testing.T) {
	db := openSSB(t, 20000)
	if _, err := db.Query(joinedYearQuery("SUM(lo_revenue)") + " APPROX WITH K 64"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT lo_quantity, SUM(lo_revenue) FROM lineorder
		WHERE lo_intkey BETWEEN 0 AND 9999 GROUP BY lo_quantity APPROX WITH K 64`); err != nil {
		t.Fatal(err)
	}
	if db.SampleStoreStats().Samples != 2 {
		t.Fatalf("samples = %d", db.SampleStoreStats().Samples)
	}
	appendCopiedRows(t, db, "lineorder", 2000)
	if got := db.SampleStoreStats().Samples; got != 2 {
		t.Fatalf("samples after a fact append = %d, want 2 (both maintained)", got)
	}
	res, err := db.Query(joinedYearQuery("SUM(lo_revenue)") + " APPROX WITH K 64")
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeOffline || res.Stats.RowsScanned != 0 {
		t.Fatalf("join query after a fact append: mode %q, %d rows scanned; want offline, 0",
			res.Mode, res.Stats.RowsScanned)
	}
	exact, err := db.Query(joinedYearQuery("COUNT(*)"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]float64{}
	for _, row := range exact.Rows {
		want[row.Groups[0].Int] = row.Aggs[0].Value
	}
	for _, m := range db.lazy.Store().List() {
		if !strings.Contains(m.Meta.Input, "⋈date(") {
			continue
		}
		got := map[int64]float64{}
		m.Sample.ForEach(func(key sample.StratumKey, r *sample.Reservoir) { got[key[0]] = r.Weight() })
		if !maps.Equal(got, want) {
			t.Fatalf("maintained join entry weights %v, exact joined counts %v", got, want)
		}
		return
	}
	t.Fatal("no join-level entry in the store")
}

// TestDimensionAppendInvalidatesJoinSamples: an append to a dimension can
// change which fact rows join, which no Δ of fact rows repairs, so the
// samples that join it are removed; scan-level samples over the fact stay.
func TestDimensionAppendInvalidatesJoinSamples(t *testing.T) {
	db := openSSB(t, 20000)
	if _, err := db.Query(joinedYearQuery("SUM(lo_revenue)") + " APPROX WITH K 64"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT lo_quantity, SUM(lo_revenue) FROM lineorder
		WHERE lo_intkey BETWEEN 0 AND 9999 GROUP BY lo_quantity APPROX WITH K 64`); err != nil {
		t.Fatal(err)
	}
	date, err := db.catalog.Table("date")
	if err != nil {
		t.Fatal(err)
	}
	b := NewTable("date")
	for _, c := range date.Columns() {
		switch {
		case c.Name == "d_datekey":
			b.Int64(c.Name, []int64{29991231}) // a key no fact row references
		case c.Kind == storage.KindString:
			b.String(c.Name, []string{c.StringAt(0)})
		default:
			b.Int64(c.Name, []int64{c.Ints[0]})
		}
	}
	if err := db.Append("date", b); err != nil {
		t.Fatal(err)
	}
	samples := db.lazy.Store().List()
	if len(samples) != 1 || samples[0].Meta.Input != "lineorder" {
		t.Fatalf("samples after a dimension append: %d, want the scan-level one alone", len(samples))
	}
	res, err := db.Query(joinedYearQuery("SUM(lo_revenue)") + " APPROX WITH K 64")
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeOnline {
		t.Fatalf("join query after a dimension append: mode %q, want online", res.Mode)
	}
}

func TestErrorBoundResizing(t *testing.T) {
	// A bound that a small k misses but a moderately larger k meets: the
	// engine should resize the sample (one retry) and stay approximate
	// instead of falling back to exact execution.
	db := openSSB(t, 60000)
	res, err := db.Query(`SELECT d_year, SUM(lo_revenue) FROM lineorder, date
		WHERE lo_orderdate = d_datekey
		GROUP BY d_year APPROX WITH K 64 ERROR 3`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode == ModeExactFallback {
		t.Fatal("resizing should have met a 3% bound without exact fallback")
	}
	if !res.Approximate {
		t.Fatal("result should stay approximate")
	}
	for _, row := range res.Rows {
		a := row.Aggs[0]
		if a.StdErr == 0 {
			continue
		}
		lo, hi, err := a.ConfidenceInterval(0.95)
		if err != nil {
			t.Fatal(err)
		}
		if (hi-lo)/2/a.Value > 0.031 {
			t.Fatalf("bound not met after resize: half-width %.4f of value", (hi-lo)/2/a.Value)
		}
	}
	// The resized sample is stored: repeating the query reuses it offline.
	res2, err := db.Query(`SELECT d_year, SUM(lo_revenue) FROM lineorder, date
		WHERE lo_orderdate = d_datekey
		GROUP BY d_year APPROX WITH K 64 ERROR 3`)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Mode != ModeOffline {
		t.Fatalf("repeat mode = %q, want offline (resized sample reused)", res2.Mode)
	}
}

func TestKAwareReuse(t *testing.T) {
	// A sample built with a large k serves smaller-k requests; a larger-k
	// request forces a rebuild.
	db := openSSB(t, 20000)
	q := func(k int) string {
		return `SELECT lo_quantity, SUM(lo_revenue) FROM lineorder
			WHERE lo_intkey BETWEEN 0 AND 9999
			GROUP BY lo_quantity APPROX WITH K ` + strconv.Itoa(k)
	}
	if _, err := db.Query(q(500)); err != nil {
		t.Fatal(err)
	}
	small, err := db.Query(q(100))
	if err != nil {
		t.Fatal(err)
	}
	if small.Mode != ModeOffline {
		t.Fatalf("smaller-k request mode = %q, want offline", small.Mode)
	}
	big, err := db.Query(q(2000))
	if err != nil {
		t.Fatal(err)
	}
	if big.Mode != ModeOnline {
		t.Fatalf("larger-k request mode = %q, want online (insufficient capacity)", big.Mode)
	}
}

func TestExplain(t *testing.T) {
	db := openSSB(t, 1000)
	desc, err := db.Explain(`SELECT lo_quantity, SUM(lo_revenue) FROM lineorder
		WHERE lo_intkey BETWEEN 0 AND 99 GROUP BY lo_quantity APPROX`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"approx aggregate", "group by (QCS): lo_quantity", "scan lineorder"} {
		if !strings.Contains(desc, want) {
			t.Errorf("Explain missing %q:\n%s", want, desc)
		}
	}
	exactDesc, err := db.Explain(`SELECT SUM(lo_revenue) FROM lineorder`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exactDesc, "exact aggregate") {
		t.Fatalf("exact plan description:\n%s", exactDesc)
	}
	if _, err := db.Explain("garbage"); err == nil {
		t.Fatal("Explain of bad SQL must error")
	}
}

func TestSamplesIntrospection(t *testing.T) {
	db := openSSB(t, 20000)
	if got := db.Samples(); len(got) != 0 {
		t.Fatalf("fresh store lists %d samples", len(got))
	}
	if _, err := db.Query(`SELECT lo_quantity, SUM(lo_revenue) FROM lineorder
		WHERE lo_intkey BETWEEN 0 AND 9999 GROUP BY lo_quantity APPROX WITH K 32`); err != nil {
		t.Fatal(err)
	}
	infos := db.Samples()
	if len(infos) != 1 {
		t.Fatalf("%d samples", len(infos))
	}
	s := infos[0]
	if s.Input != "lineorder" || s.K != 32 || s.Strata != 50 {
		t.Fatalf("info = %+v", s)
	}
	if s.Weight != 10000 || s.Rows == 0 || s.Bytes == 0 {
		t.Fatalf("info = %+v", s)
	}
	if len(s.QCS) != 1 || s.QCS[0] != "lo_quantity" {
		t.Fatalf("QCS = %v", s.QCS)
	}
	if !strings.Contains(s.Predicate, "lo_intkey") {
		t.Fatalf("predicate = %q", s.Predicate)
	}
}

func TestQueryContextCancellation(t *testing.T) {
	db := openSSB(t, 200000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, `SELECT lo_quantity, SUM(lo_revenue) FROM lineorder
		GROUP BY lo_quantity`); err == nil {
		t.Fatal("canceled exact query must error")
	}
	if _, err := db.QueryContext(ctx, `SELECT lo_quantity, SUM(lo_revenue) FROM lineorder
		GROUP BY lo_quantity APPROX`); err == nil {
		t.Fatal("canceled approx query must error")
	}
	// A canceled query must not poison the sample store.
	res, err := db.QueryContext(context.Background(), `SELECT lo_quantity, SUM(lo_revenue)
		FROM lineorder GROUP BY lo_quantity APPROX`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeOnline {
		t.Fatalf("mode after canceled attempts = %q", res.Mode)
	}
}

func TestHavingClause(t *testing.T) {
	db := openSSB(t, 30000)
	all, err := db.Query(`SELECT lo_quantity, COUNT(*) FROM lineorder GROUP BY lo_quantity`)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a threshold between min and max group counts.
	var minC, maxC float64 = math.Inf(1), 0
	for _, row := range all.Rows {
		c := row.Aggs[0].Value
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	threshold := int((minC + maxC) / 2)
	res, err := db.Query(`SELECT lo_quantity, COUNT(*) FROM lineorder
		GROUP BY lo_quantity HAVING COUNT(*) > ` + strconv.Itoa(threshold))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || len(res.Rows) == len(all.Rows) {
		t.Fatalf("HAVING kept %d of %d rows (threshold %d)", len(res.Rows), len(all.Rows), threshold)
	}
	for _, row := range res.Rows {
		if row.Aggs[0].Value <= float64(threshold) {
			t.Fatalf("row %v violates HAVING", row)
		}
	}
	// HAVING composes with ORDER BY, LIMIT, and APPROX.
	res2, err := db.Query(`SELECT lo_quantity, COUNT(*) FROM lineorder
		GROUP BY lo_quantity HAVING COUNT(*) > ` + strconv.Itoa(threshold) + `
		ORDER BY COUNT(*) DESC LIMIT 3 APPROX WITH K 2000`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) > 3 || !res2.Approximate {
		t.Fatalf("composed query rows = %d", len(res2.Rows))
	}
	// HAVING conjunctions.
	res3, err := db.Query(`SELECT lo_quantity, COUNT(*), SUM(lo_revenue) FROM lineorder
		GROUP BY lo_quantity HAVING COUNT(*) > 0 AND SUM(lo_revenue) >= 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Rows) != len(all.Rows) {
		t.Fatalf("trivial HAVING dropped rows: %d of %d", len(res3.Rows), len(all.Rows))
	}
}

func TestHavingValidation(t *testing.T) {
	db := openSSB(t, 1000)
	for _, q := range []string{
		// Aggregate not in the select list.
		`SELECT lo_quantity, COUNT(*) FROM lineorder GROUP BY lo_quantity HAVING SUM(lo_revenue) > 5`,
		// Bare column.
		`SELECT lo_quantity, COUNT(*) FROM lineorder GROUP BY lo_quantity HAVING lo_quantity > 5`,
		// String literal.
		`SELECT lo_quantity, COUNT(*) FROM lineorder GROUP BY lo_quantity HAVING COUNT(*) > 'x'`,
	} {
		if _, err := db.Query(q); err == nil {
			t.Errorf("no error for %q", q)
		}
	}
}

func TestSelectAliases(t *testing.T) {
	// More lineorder rows than the 2 520 date rows, so lineorder is the fact
	// table and d_datekey the join's unique key.
	db := openSSB(t, 4000)
	res, err := db.Query(`SELECT d_year, SUM(lo_revenue) AS revenue, COUNT(*) AS orders
		FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year`)
	if err != nil {
		t.Fatal(err)
	}
	if res.AggColumns[0] != "revenue" || res.AggColumns[1] != "orders" {
		t.Fatalf("agg columns = %v", res.AggColumns)
	}
	// Aliases surface through database/sql too.
	RegisterDB("alias-test", db)
	sqlDB, err := sqlOpenHelper("alias-test")
	if err != nil {
		t.Fatal(err)
	}
	defer sqlDB.Close()
	rows, err := sqlDB.Query(`SELECT d_year, SUM(lo_revenue) AS revenue FROM lineorder, date
		WHERE lo_orderdate = d_datekey GROUP BY d_year`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cols, _ := rows.Columns()
	if cols[1] != "revenue" {
		t.Fatalf("driver columns = %v", cols)
	}
}

func TestDescribe(t *testing.T) {
	db := openSSB(t, 1000)
	cols, err := db.Describe("part")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ColumnInfo{}
	for _, c := range cols {
		byName[c.Name] = c
	}
	if byName["p_partkey"].Type != "int64" || byName["p_partkey"].DictSize != 0 {
		t.Fatalf("p_partkey = %+v", byName["p_partkey"])
	}
	if byName["p_brand1"].Type != "string" || byName["p_brand1"].DictSize != 1000 {
		t.Fatalf("p_brand1 = %+v", byName["p_brand1"])
	}
	if _, err := db.Describe("nope"); err == nil {
		t.Fatal("unknown table must error")
	}
}
