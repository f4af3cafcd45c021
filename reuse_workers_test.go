package laqy

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"testing"
)

// TestOfflineHitWorkersBitIdentical: an offline hit estimated on four
// workers answers bit for bit what it answers on one. One sample file is
// loaded into a Workers: 1 and a Workers: 4 database, and both serve the
// stored range and a narrowed range from it in the Q1 shape; the answer
// spans at least three chunks of strata, so the four-worker estimate loop
// runs on helper goroutines.
func TestOfflineHitWorkersBitIdentical(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	const rows, seed = 80_000, 41
	q := func(lo, hi int) string {
		return fmt.Sprintf(`SELECT lo_orderdate, SUM(lo_revenue), COUNT(*), AVG(lo_revenue) FROM lineorder
			WHERE lo_intkey BETWEEN %d AND %d GROUP BY lo_orderdate APPROX WITH K 32`, lo, hi)
	}
	path := filepath.Join(t.TempDir(), "samples.laqy")
	src := Open(Config{Workers: 1, Seed: seed})
	if err := src.LoadSSB(rows, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Query(q(0, rows-1)); err != nil {
		t.Fatal(err)
	}
	if err := src.SaveSamples(path); err != nil {
		t.Fatal(err)
	}

	ranges := [][2]int{{0, rows - 1}, {rows / 8, rows / 2}}
	var answers [2][]*Result
	for i, workers := range []int{1, 4} {
		db := Open(Config{Workers: workers, Seed: seed})
		if err := db.LoadSSB(rows, 3); err != nil {
			t.Fatal(err)
		}
		if err := db.LoadSamples(path); err != nil {
			t.Fatal(err)
		}
		for _, r := range ranges {
			res, err := db.Query(q(r[0], r[1]))
			if err != nil {
				t.Fatal(err)
			}
			if res.Mode != ModeOffline || len(res.Rows) < 3*512 {
				t.Fatalf("workers=%d %v: mode %q with %d rows, want offline over at least three chunks of 512 strata",
					workers, r, res.Mode, len(res.Rows))
			}
			answers[i] = append(answers[i], res)
		}
	}
	for j, r := range ranges {
		one, four := answers[0][j].Rows, answers[1][j].Rows
		if len(one) != len(four) {
			t.Fatalf("%v: %d rows on one worker, %d on four", r, len(one), len(four))
		}
		for i := range one {
			if one[i].Groups[0] != four[i].Groups[0] {
				t.Fatalf("%v row %d: group %v on one worker, %v on four", r, i, one[i].Groups[0], four[i].Groups[0])
			}
			for a := range one[i].Aggs {
				x, y := one[i].Aggs[a], four[i].Aggs[a]
				if math.Float64bits(x.Value) != math.Float64bits(y.Value) ||
					math.Float64bits(x.StdErr) != math.Float64bits(y.StdErr) || x.Support != y.Support {
					t.Fatalf("%v row %d agg %d: %+v on one worker, %+v on four", r, i, a, x, y)
				}
			}
		}
	}
}
