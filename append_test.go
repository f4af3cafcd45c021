package laqy

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"laqy/internal/sample"
	"laqy/internal/ssb"
	"laqy/internal/storage"
)

// keyRun is the column from, from+1, …, from+n-1.
func keyRun(from, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(from + i)
	}
	return out
}

// openKeys opens a DB holding t(key, v) with key = v = 0, …, rows-1.
func openKeys(t testing.TB, cfg Config, rows int) *DB {
	t.Helper()
	db := Open(cfg)
	if err := db.Register(NewTable("t").Int64("key", keyRun(0, rows)).Int64("v", keyRun(0, rows))); err != nil {
		t.Fatal(err)
	}
	return db
}

// storedWeight is the total stratum weight of every stored sample.
func storedWeight(db *DB) []float64 {
	var out []float64
	for _, m := range db.lazy.Store().List() {
		w := 0.0
		m.Sample.ForEach(func(_ sample.StratumKey, r *sample.Reservoir) { w += r.Weight() })
		out = append(out, w)
	}
	return out
}

// TestConcurrentAppendsKeepEveryRow: appends to one table from several
// goroutines each land exactly once — in the table, and in the sample
// maintained over it. Unserialized appends both grow the same version, and
// the later publish drops the earlier batch after maintenance merged it.
func TestConcurrentAppendsKeepEveryRow(t *testing.T) {
	const base, writers, appends, batch = 200_000, 4, 10, 100
	db := openKeys(t, Config{Workers: 2, Seed: 5}, base)
	if _, err := db.Query(`SELECT SUM(v) FROM t WHERE key BETWEEN 0 AND 999999 APPROX WITH K 64`); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range appends {
				from := base + (w*appends+i)*batch
				if err := db.Append("t", NewTable("t").Int64("key", keyRun(from, batch)).Int64("v", keyRun(from, batch))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	const want = base + writers*appends*batch
	tab, err := db.catalog.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != want {
		t.Fatalf("rows after %d concurrent appends = %d, want %d", writers*appends, tab.NumRows(), want)
	}
	keys := slices.Clone(tab.Column("key").Ints)
	slices.Sort(keys)
	if !slices.Equal(keys, keyRun(0, want)) {
		t.Fatal("the table does not hold every appended key exactly once")
	}
	if got := storedWeight(db); len(got) != 1 || got[0] != want {
		t.Fatalf("maintained sample weighs %v, want [%d]", got, want)
	}
}

// TestAppendBesideQueriesKeepsOldVersions runs two appenders beside
// queries (run it with -race: appends write past the rows a published
// version holds, in vectors that version's readers share). A version taken
// after the first append — whose columns have spare capacity behind them —
// reads the same rows after every later append.
func TestAppendBesideQueriesKeepsOldVersions(t *testing.T) {
	const base, batch, rounds = 50_000, 500, 8
	db := openKeys(t, Config{Workers: 2, Seed: 7}, base)
	if err := db.Append("t", NewTable("t").Int64("key", keyRun(base, batch)).Int64("v", keyRun(base, batch))); err != nil {
		t.Fatal(err)
	}
	kept, err := db.catalog.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(kept.Column("v").Ints)

	done := make(chan struct{})
	var readers sync.WaitGroup
	for _, q := range []string{
		`SELECT SUM(v) FROM t WHERE key BETWEEN 0 AND 999999 APPROX WITH K 64`,
		`SELECT SUM(v), COUNT(*) FROM t WHERE key BETWEEN 1000 AND 999999`,
	} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				if _, err := db.Query(q); err != nil {
					t.Error(err)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for w := range 2 {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := range rounds {
				from := base + batch + (w*rounds+i)*batch
				if err := db.Append("t", NewTable("t").Int64("key", keyRun(from, batch)).Int64("v", keyRun(from, batch))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()

	if kept.NumRows() != base+batch || !slices.Equal(kept.Column("v").Ints, want) {
		t.Fatal("a published version changed under later appends")
	}
	if n, _ := db.NumRows("t"); n != base+batch*(1+2*rounds) {
		t.Fatalf("rows = %d, want %d", n, base+batch*(1+2*rounds))
	}
}

// TestPublishedColumnsAreClipped: every column a reader can reach has
// cap == len — registered tables, grown versions with spare capacity behind
// them, and tables registered from vectors with spare capacity — so no
// reader's append writes into the rows the next version lands, and appends
// never write through a caller's vector.
func TestPublishedColumnsAreClipped(t *testing.T) {
	const rows = 1000
	roomy := make([]int64, rows, 4*rows)
	copy(roomy, keyRun(0, rows))
	db := Open(Config{})
	if err := db.Register(NewTable("t").Int64("key", roomy).Int64("v", keyRun(0, rows))); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadSSB(5000, 1); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		for _, name := range db.Tables() {
			tab, err := db.catalog.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range tab.Columns() {
				if cap(c.Ints) != len(c.Ints) {
					t.Fatalf("%s: %s.%s has cap %d, len %d", when, name, c.Name, cap(c.Ints), len(c.Ints))
				}
			}
		}
	}
	check("registered")
	for i := range 3 {
		from := rows * (1 + i)
		if err := db.Append("t", NewTable("t").Int64("key", keyRun(from, rows)).Int64("v", keyRun(from, rows))); err != nil {
			t.Fatal(err)
		}
		appendCopiedRows(t, db, "lineorder", 100)
		check("after appends")
	}
	if slices.ContainsFunc(roomy[rows:cap(roomy)], func(v int64) bool { return v != 0 }) {
		t.Fatal("an append wrote into the spare capacity of the vector the table was registered from")
	}
}

// TestAppendAllocationScalesWithBatch: an append costs the batch, not the
// table. On a 0.5 M- and a 2 M-row table alike, no single one of 50 appends
// allocates more than a copy of its batch, one allocation for the open
// segment (at most Config.SegmentRows rows of every column) and a little
// bookkeeping; copying the table, or any sealed row of it, on an append
// would pass that bound. The 1.25 M appended rows seal several segments.
func TestAppendAllocationScalesWithBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("appends 2.5 M rows")
	}
	const batch, appends, segRows = 25_000, 50, 1 << 18
	const bound = (batch+segRows)*2*8 + 64<<10
	for _, rows := range []int{500_000, 2_000_000} {
		db := openKeys(t, Config{SegmentRows: segRows}, rows)
		var worst uint64
		for i := 0; i < appends; i++ {
			from := rows + i*batch
			b := NewTable("t").Int64("key", keyRun(from, batch)).Int64("v", keyRun(from, batch))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := db.Append("t", b); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			worst = max(worst, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%d rows: at most %d bytes per %d-row append", rows, worst, batch)
		if worst > bound {
			t.Fatalf("%d rows: an append allocated %d bytes; want at most %d", rows, worst, bound)
		}
	}
}

// TestAppendAcrossSealAnswersAsConcatenated: after appends that cross a
// segment seal, the 13 SSB queries answer exactly as a table loaded whole
// from the concatenated rows does, and an APPROX query whose stored sample
// the appends maintained (k past every stratum's size, so the sample is the
// rows themselves) answers offline with the same totals. No version of
// lineorder the appends made is ever concatenated into whole-table
// vectors: scans, Δ-builds and joins read its segments.
func TestAppendAcrossSealAnswersAsConcatenated(t *testing.T) {
	const base, batch, batches = 100_000, 9_000, 8
	const approx = `SELECT lo_discount, SUM(lo_revenue), COUNT(*) FROM lineorder
		WHERE lo_quantity BETWEEN 10 AND 30 GROUP BY lo_discount`
	data, err := ssb.Generate(ssb.Config{LineorderRows: base, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	extra, err := ssb.Generate(ssb.Config{LineorderRows: batch * batches, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	db := Open(Config{Workers: 2, Seed: 3, SegmentRows: storage.DefaultMorselSize})
	if err := db.LoadSSB(base, 11); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(approx + " APPROX WITH K 100000"); err != nil {
		t.Fatal(err)
	}
	var versions []*storage.Table
	for b := 0; b < batches; b++ {
		tb := NewTable("lineorder")
		for _, c := range extra.Lineorder.Columns() {
			tb.Int64(c.Name, c.Ints[b*batch:(b+1)*batch])
		}
		if err := db.Append("lineorder", tb); err != nil {
			t.Fatal(err)
		}
		v, _ := db.catalog.Table("lineorder")
		versions = append(versions, v)
	}
	// Loaded as [0, 65 536) and [65 536, 100 000); the appends fill
	// [100 000, 165 536), seal it, and open a fourth segment.
	fact := versions[len(versions)-1]
	if fact.NumSegments() != 4 || fact.Segments()[2].End() != base+storage.DefaultMorselSize {
		t.Fatalf("%d rows in %d segments: the appends did not cross a seal", fact.NumRows(), fact.NumSegments())
	}

	oracle := Open(Config{Workers: 2, Seed: 3})
	var cols []*storage.Column
	for i, c := range data.Lineorder.Columns() {
		vals := append(slices.Clone(c.Ints), extra.Lineorder.Columns()[i].Ints...)
		cols = append(cols, &storage.Column{Name: c.Name, Kind: c.Kind, Ints: vals, Dict: c.Dict})
	}
	for _, tab := range []*storage.Table{storage.MustNewTable("lineorder", cols...), data.Date, data.Supplier, data.Part, data.Customer} {
		if err := oracle.registerTable(tab); err != nil {
			t.Fatal(err)
		}
	}

	// same compares answers group by group: exact ones bit for bit, and
	// estimates, which sum weighted values in another order, to 1e-12.
	same := func(name string, got, want *Result) {
		t.Helper()
		tol := 0.0
		if got.Approximate {
			tol = 1e-12
		}
		if len(got.Rows) != len(want.Rows) || len(got.Rows) == 0 {
			t.Fatalf("%s: %d groups, the concatenated table gives %d", name, len(got.Rows), len(want.Rows))
		}
		for i, row := range got.Rows {
			w := want.Rows[i]
			for g := range row.Groups {
				if row.Groups[g] != w.Groups[g] {
					t.Fatalf("%s: group %d is %v, want %v", name, i, row.Groups, w.Groups)
				}
			}
			for a := range row.Aggs {
				if math.Abs(row.Aggs[a].Value-w.Aggs[a].Value) > tol*math.Abs(w.Aggs[a].Value) {
					t.Fatalf("%s: group %v aggregate %d = %v, want %v", name, row.Groups, a, row.Aggs[a].Value, w.Aggs[a].Value)
				}
			}
		}
	}
	for _, q := range ssbQueries {
		got, err := db.Query(q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		want, err := oracle.Query(q.sql)
		if err != nil {
			t.Fatalf("%s on the concatenated table: %v", q.name, err)
		}
		same(q.name, got, want)
	}
	got, err := db.Query(approx + " APPROX WITH K 100000")
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode != ModeOffline {
		t.Fatalf("APPROX after the appends ran %v; want the maintained sample reused offline", got.Mode)
	}
	want, err := oracle.Query(approx)
	if err != nil {
		t.Fatal(err)
	}
	same("APPROX", got, want)
	for _, v := range versions {
		if v.Concatenated() {
			t.Fatalf("the lineorder version of %d rows was concatenated into whole-table vectors", v.NumRows())
		}
	}
}

// TestMaintainedJoinSampleCoverage calibrates the Δ-maintenance of a joined
// sample (until a calibration harness exists): over 200 seeds, a d_year
// join entry maintained through ten fact appends must cover the exact
// per-year SUM with its 95 % intervals as often as a sample built fresh on
// the same grown tables does, within binomial tolerance.
func TestMaintainedJoinSampleCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical: 200 seeded runs")
	}
	const seeds, appends, batch = 200, 10, 300
	const query = `SELECT d_year, SUM(lo_revenue) FROM lineorder, date
		WHERE lo_orderdate = d_datekey AND lo_quantity BETWEEN 6 AND 45 GROUP BY d_year`
	// covered counts the answer's intervals that contain the exact value.
	covered := func(res *Result, truth map[int64]float64) (hits, n int) {
		for _, row := range res.Rows {
			lo, hi, err := row.Aggs[0].ConfidenceInterval(0.95)
			if err != nil {
				t.Fatal(err)
			}
			if v := truth[row.Groups[0].Int]; lo <= v && v <= hi {
				hits++
			}
			n++
		}
		return hits, n
	}
	var maintHits, maintN, freshHits, freshN int
	for seed := uint64(1); seed <= seeds; seed++ {
		db := Open(Config{Workers: 1, Seed: seed})
		if err := db.LoadSSB(6000, seed); err != nil {
			t.Fatal(err)
		}
		extra, err := ssb.Generate(ssb.Config{LineorderRows: appends * batch, Seed: seed + 1<<32})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Query(query + " APPROX WITH K 64"); err != nil {
			t.Fatal(err)
		}
		for i := range appends {
			b := NewTable("lineorder")
			for _, c := range extra.Lineorder.Columns() {
				b.Int64(c.Name, c.Ints[i*batch:(i+1)*batch])
			}
			if err := db.Append("lineorder", b); err != nil {
				t.Fatal(err)
			}
		}
		exact, err := db.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		truth := map[int64]float64{}
		for _, row := range exact.Rows {
			truth[row.Groups[0].Int] = row.Aggs[0].Value
		}
		maintained, err := db.Query(query + " APPROX WITH K 64")
		if err != nil {
			t.Fatal(err)
		}
		if maintained.Mode != ModeOffline {
			t.Fatalf("seed %d: the joined query after %d appends ran %q, want offline", seed, appends, maintained.Mode)
		}
		db.ClearSamples()
		fresh, err := db.Query(query + " APPROX WITH K 64")
		if err != nil {
			t.Fatal(err)
		}
		h, n := covered(maintained, truth)
		maintHits, maintN = maintHits+h, maintN+n
		h, n = covered(fresh, truth)
		freshHits, freshN = freshHits+h, freshN+n
	}
	pm, pf := float64(maintHits)/float64(maintN), float64(freshHits)/float64(freshN)
	p := float64(maintHits+freshHits) / float64(maintN+freshN)
	tol := 3.5 * math.Sqrt(p*(1-p)*(1/float64(maintN)+1/float64(freshN)))
	t.Logf("95%% CI coverage: maintained %.3f (%d intervals), fresh %.3f (%d); tolerance ±%.3f", pm, maintN, pf, freshN, tol)
	if math.Abs(pm-pf) > tol {
		t.Fatalf("maintained coverage %.3f and fresh coverage %.3f differ by more than %.3f", pm, pf, tol)
	}
}
