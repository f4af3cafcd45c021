package laqy

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"laqy/internal/ssb"
	"laqy/internal/workload"
)

// TestReuseAnswerPins pins the answers of exploratory sessions bit for bit:
// Mode, row order, group values and the Float64bits of every Value and
// StdErr plus Support, over extend / narrow / same / clear steps of three
// query shapes carrying all five aggregate kinds. The digests were recorded
// on the commit before tightening became a view over the stored sample and
// Δ-merges stopped deep-copying it (the TestSampleIdentityPins protocol), and
// must not move: how a reuse hit is computed is not allowed to change what it
// answers. Workers: 1 because morsel→worker assignment is scheduling-dependent
// at higher parallelism.
func TestReuseAnswerPins(t *testing.T) {
	const rows = 60_000
	shapes := []string{
		// Q1: sparse date strata — most hold one or two tuples of a narrow
		// range, many empty out under tightening.
		`SELECT lo_orderdate, SUM(lo_revenue), COUNT(*), AVG(lo_revenue), MIN(lo_revenue), MAX(lo_revenue)
			FROM lineorder WHERE lo_intkey BETWEEN %d AND %d GROUP BY lo_orderdate APPROX WITH K 32`,
		// Q1 over 50 dense strata: reservoirs overflow from a ~3 % range on.
		`SELECT lo_quantity, SUM(lo_revenue), COUNT(*), AVG(lo_extendedprice), MIN(lo_extendedprice), MAX(lo_revenue)
			FROM lineorder WHERE lo_intkey BETWEEN %d AND %d GROUP BY lo_quantity APPROX WITH K 32`,
		// Q2: two-column strata behind three joins.
		`SELECT d_year, p_brand1, SUM(lo_revenue) FROM lineorder, date, part, supplier
			WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey
			AND lo_intkey BETWEEN %d AND %d AND p_category = 'MFGR#12' AND s_region = 'AMERICA'
			GROUP BY d_year, p_brand1 APPROX WITH K 32`,
	}
	for _, c := range []struct {
		name     string
		cfg      Config
		shapes   []int // session i runs shapes[i%len]
		sessions int
		want     string
		repairs  bool
	}{
		{"reuse", Config{Workers: 1, Seed: 77}, []int{0, 1, 2}, 7, "0d5cfa5615602227", false},
		// MinSupport makes thinned strata fail the §5.2.3 check: repairs
		// (a scan behind an offline answer) and fallbacks are pinned too.
		{"min-support", Config{Workers: 1, Seed: 78, MinSupport: 30}, []int{1, 0}, 4, "56b650ca596caf85", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := Open(c.cfg)
			if err := db.LoadSSB(rows, 5); err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var buf [8]byte
			put := func(v uint64) {
				binary.LittleEndian.PutUint64(buf[:], v)
				h.Write(buf[:])
			}
			modes := map[Mode]int{}
			queries, tightened, repaired := 0, 0, 0
			for s := 0; s < c.sessions; s++ {
				cfg := workload.Config{Domain: rows, Seed: uint64(s + 1), SameOrNarrowRate: 0.3}
				steps := append(workload.LongRunning(cfg, 30), workload.ShortRunning(cfg, 2, 10)...)
				db.ClearSamples()
				for _, st := range steps {
					res, err := db.Query(fmt.Sprintf(shapes[c.shapes[s%len(c.shapes)]], st.Lo, st.Hi))
					if err != nil {
						t.Fatalf("session %d %v [%d,%d]: %v", s, st.Kind, st.Lo, st.Hi, err)
					}
					queries++
					modes[res.Mode]++
					if res.Mode == ModeOffline && st.Kind == workload.Narrow {
						tightened++
					}
					if res.Mode == ModeOffline && res.Stats.RowsScanned > 0 { // a repair scan behind a full reuse
						repaired++
					}
					put(uint64(res.Mode))
					put(uint64(len(res.Rows)))
					for _, row := range res.Rows {
						for _, g := range row.Groups {
							put(uint64(g.Int))
						}
						for _, a := range row.Aggs {
							put(math.Float64bits(a.Value))
							put(math.Float64bits(a.StdErr))
							put(uint64(a.Support))
						}
					}
				}
			}
			t.Logf("%d queries: %v, %d narrowed offline, %d repaired", queries, modes, tightened, repaired)
			if modes[ModeOffline] == 0 || modes[ModePartial] == 0 || modes[ModeOnline] == 0 || tightened == 0 {
				t.Fatalf("sequence does not exercise every reuse path: %v, %d narrowed offline", modes, tightened)
			}
			if c.repairs && repaired == 0 {
				t.Fatal("no support repair ran")
			}
			if got := hex.EncodeToString(h.Sum(nil))[:16]; got != c.want {
				t.Errorf("answer digest %s, pinned %s", got, c.want)
			}
		})
	}
}

// TestAppendAnswerPins pins, under TestReuseAnswerPins' digest, the answers
// of sessions interleaved with DB.Append batches into the fact table, so a
// Δ-maintenance merge is pinned too: the scan-level Q1 shape and the joined
// Q2 shape each run an exploratory session per round, then a batch lands and
// each shape's last query runs again, answered offline by the entry the
// append maintained. The batches seal the first segment (SegmentRows is
// floored at one 65 536-row morsel), so maintenance resumes across a sealed
// segment and a fresh open one.
func TestAppendAnswerPins(t *testing.T) {
	const rows, batches, batch = 60_000, 4, 2_000
	const want = "69549037442a4ade"
	shapes := []string{
		`SELECT lo_quantity, SUM(lo_revenue), COUNT(*), AVG(lo_extendedprice), MIN(lo_extendedprice), MAX(lo_revenue)
			FROM lineorder WHERE lo_intkey BETWEEN %d AND %d GROUP BY lo_quantity APPROX WITH K 32`,
		`SELECT d_year, p_brand1, SUM(lo_revenue) FROM lineorder, date, part, supplier
			WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey
			AND lo_intkey BETWEEN %d AND %d AND p_category = 'MFGR#12' AND s_region = 'AMERICA'
			GROUP BY d_year, p_brand1 APPROX WITH K 32`,
	}
	db := Open(Config{Workers: 1, Seed: 79, SegmentRows: 1 << 16})
	if err := db.LoadSSB(rows, 5); err != nil {
		t.Fatal(err)
	}
	// The appended rows are a prefix of a second data set of the same size,
	// so their lo_intkey values spread over the queried domain and fall
	// into the stored predicates.
	extra, err := ssb.Generate(ssb.Config{LineorderRows: rows, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	query := func(sql string) *Result {
		res, err := db.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		put(uint64(res.Mode))
		put(uint64(len(res.Rows)))
		for _, row := range res.Rows {
			for _, g := range row.Groups {
				put(uint64(g.Int))
			}
			for _, a := range row.Aggs {
				put(math.Float64bits(a.Value))
				put(math.Float64bits(a.StdErr))
				put(uint64(a.Support))
			}
		}
		return res
	}
	modes := map[Mode]int{}
	maintainedHits := 0
	for round := 0; ; round++ {
		last := make([]string, len(shapes))
		for i, shape := range shapes {
			cfg := workload.Config{Domain: rows, Seed: uint64(round*len(shapes) + i + 1), SameOrNarrowRate: 0.3}
			for _, st := range workload.LongRunning(cfg, 8) {
				last[i] = fmt.Sprintf(shape, st.Lo, st.Hi)
				modes[query(last[i]).Mode]++
			}
		}
		if round == batches {
			break
		}
		b := NewTable("lineorder")
		for _, c := range extra.Lineorder.Columns() {
			b.Int64(c.Name, c.Ints[round*batch:(round+1)*batch])
		}
		if err := db.Append("lineorder", b); err != nil {
			t.Fatal(err)
		}
		for _, sql := range last {
			if res := query(sql); res.Mode != ModeOffline || res.Stats.RowsScanned != 0 {
				t.Fatalf("round %d: after the append %s ran %v scanning %d rows, want an offline hit",
					round, sql, res.Mode, res.Stats.RowsScanned)
			}
			maintainedHits++
		}
	}
	fact, err := db.catalog.Table("lineorder")
	if err != nil {
		t.Fatal(err)
	}
	if fact.NumSegments() < 2 {
		t.Fatalf("%d rows in %d segment(s): no append sealed one", fact.NumRows(), fact.NumSegments())
	}
	t.Logf("%v, %d maintained hits", modes, maintainedHits)
	if modes[ModeOffline] == 0 || modes[ModePartial] == 0 || maintainedHits == 0 {
		t.Fatalf("sequence does not exercise every path: %v, %d maintained hits", modes, maintainedHits)
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != want {
		t.Errorf("answer digest %s, pinned %s", got, want)
	}
}
