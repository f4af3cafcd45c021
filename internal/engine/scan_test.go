package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"laqy/internal/algebra"
	"laqy/internal/governor"
	"laqy/internal/rng"
	"laqy/internal/storage"
)

// randomScanPredicate draws a conjunction over the clustered fact's
// columns: date ranges (zone maps skip and fill), flag ranges and
// two-interval sets (partial morsels, no full verdicts), the constant
// column passing or failing everything, the noise column, or nothing at
// all.
func randomScanPredicate(g *rng.Lehmer64) algebra.Predicate {
	p := algebra.NewPredicate()
	if g.Intn(3) != 0 {
		lo := 20070000 + int64(g.Intn(400))
		p = p.WithRange("e_date", lo, lo+int64(g.Intn(300)))
	}
	switch g.Intn(4) {
	case 0:
		lo := int64(g.Intn(50))
		p = p.WithRange("e_flag", lo, lo+int64(g.Intn(30)))
	case 1:
		p = p.With("e_flag", algebra.NewSet(
			algebra.Interval{Lo: 3, Hi: 7 + int64(g.Intn(10))}, algebra.Interval{Lo: 30, Hi: 41}))
	}
	switch g.Intn(6) {
	case 0:
		p = p.WithRange("e_one", 1, 1)
	case 1:
		p = p.WithRange("e_one", 2, 9)
	case 2:
		p = p.WithRange("e_wide", -1<<62, 1<<62)
	}
	return p
}

// TestScanDriverBodiesAgree runs the driver's two bodies — the
// materializing sink pipeline (RunScan) and the fused fold (RunExact) —
// over the same randomized predicates and storage layouts and requires the
// same answer and the same morsel verdicts from both: they consume one
// morsel plan, so they cannot disagree about which morsels were skipped or
// full. The DisableZoneMaps reference must give the same answer with no
// verdicts at all.
func TestScanDriverBodiesAgree(t *testing.T) {
	const m = storage.DefaultMorselSize
	sealed := buildClusteredFact(t, 3*m+1234, 21) // one-morsel segments, empty open segment
	open, err := storage.Resegment(buildClusteredFact(t, 2*m+4321, 22), m)
	if err != nil {
		t.Fatal(err)
	}
	// Re-segmenting drops the seal: the short last segment is the open one.
	layouts := []struct {
		name     string
		fact     *storage.Table
		from, to int
	}{
		{"sealed segments", sealed, 0, 0},
		{"open last segment", open, 0, 0},
		{"empty range", sealed, sealed.NumRows(), 0},
		{"delta straddling seals", sealed, m / 2, 0},
		{"delta inside one segment", sealed, m + 777, 2*m - 5},
	}
	g := rng.NewLehmer64(20230618)
	val := ExprsFromNames([]string{"e_val"})
	verdicts := func(s Stats) [2]int64 { return [2]int64{s.MorselsPruned, s.MorselsFull} }
	var sawPruned, sawFull bool
	for _, lay := range layouts {
		for trial := 0; trial < 12; trial++ {
			p := randomScanPredicate(g)
			workers := 1 + 2*(trial%2)
			q := func() *Query {
				return &Query{Fact: lay.fact, Filter: p, ScanFrom: lay.from, ScanTo: lay.to}
			}
			sum, sinkStats, err := RunScan(q(), "e_val", workers)
			if err != nil {
				t.Fatal(err)
			}
			fold, foldCount, foldStats, err := foldSums(q(), val, workers)
			if err != nil {
				t.Fatal(err)
			}
			ref := q()
			ref.DisableZoneMaps = true
			want, refStats, err := RunScan(ref, "e_val", workers)
			if err != nil {
				t.Fatal(err)
			}
			// e_val < 1000, so every partial sum is an exact float64 and the
			// answers are equal for any worker count.
			if sum != want || fold[0] != want {
				t.Fatalf("%s %v: sink %v, fold %v, reference %v", lay.name, p, sum, fold[0], want)
			}
			if sinkStats.RowsSelected != refStats.RowsSelected || foldCount != refStats.RowsSelected ||
				foldStats.RowsSelected != refStats.RowsSelected {
				t.Fatalf("%s %v: selected sink %d, fold %d/%d, reference %d", lay.name, p,
					sinkStats.RowsSelected, foldStats.RowsSelected, foldCount, refStats.RowsSelected)
			}
			if sinkStats.RowsScanned != foldStats.RowsScanned || sinkStats.RowsScanned != refStats.RowsScanned {
				t.Fatalf("%s: rows scanned %d / %d / %d", lay.name, sinkStats.RowsScanned, foldStats.RowsScanned, refStats.RowsScanned)
			}
			if verdicts(sinkStats) != verdicts(foldStats) {
				t.Fatalf("%s %v: verdicts (pruned, full) sink %v vs fold %v",
					lay.name, p, verdicts(sinkStats), verdicts(foldStats))
			}
			if verdicts(refStats) != [2]int64{} || refStats.MorselsFused != 0 {
				t.Fatalf("%s: reference run took a verdict: %+v", lay.name, refStats)
			}
			if sinkStats.MorselsFused != 0 || foldStats.MorselsFused != foldStats.MorselsFull {
				t.Fatalf("%s: fused morsels sink %d, fold %d (full %d)", lay.name,
					sinkStats.MorselsFused, foldStats.MorselsFused, foldStats.MorselsFull)
			}
			if foldStats.Process != 0 {
				t.Fatalf("%s: fused work booked %v past the scan", lay.name, foldStats.Process)
			}
			sawPruned = sawPruned || foldStats.MorselsPruned > 0
			sawFull = sawFull || foldStats.MorselsFull > 0
		}
	}
	if !sawPruned || !sawFull {
		t.Fatalf("layouts never exercised a verdict: pruned=%v full=%v", sawPruned, sawFull)
	}
}

// panicSink is a rowSink poisoned to blow up mid-pipeline, standing in
// for a buggy kernel.
type panicSink struct{}

func (s *panicSink) consume(cols [][]int64, n int) {
	panic("poisoned sink kernel: deliberate test explosion")
}

// TestScanDriverFailures: cancellation, a worker panic and a mid-run
// failure poll are the driver's business, so they surface the same way
// whichever body the workers run — the query fails with a typed or
// diagnosable error at a morsel boundary, the process and the engine keep
// running.
func TestScanDriverFailures(t *testing.T) {
	fact := buildFact(500000, 4, 10)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, stop := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer stop()
	val := ExprsFromNames([]string{"f_val"})

	// A corrupt column: corrupt's f_val reads as a vector that lost its
	// tail, so any body reading a late row through it indexes out of range.
	corrupt := buildFact(200000, 4, 10)
	defer func() { segmentColumn = (*storage.Segment).Column }()
	segmentColumn = func(s *storage.Segment, name string) []int64 {
		v := s.Column(name)
		if name == "f_val" && s == corrupt.Segments()[0] {
			return v[:1000]
		}
		return v
	}

	gov := governor.New(governor.Config{QueryMemoryBytes: 1 << 20})
	budget := gov.NewQueryBudget()
	errDenied := errors.New("denied mid-run")

	isPanic := func(needles ...string) func(*testing.T, error) {
		return func(t *testing.T, err error) {
			for _, n := range append(needles, "engine: panic in morsel worker", "goroutine ") {
				if !strings.Contains(err.Error(), n) {
					t.Fatalf("error does not carry %q:\n%v", n, err)
				}
			}
		}
	}
	is := func(target error) func(*testing.T, error) {
		return func(t *testing.T, err error) {
			if !errors.Is(err, target) {
				t.Fatalf("err = %v, want %v", err, target)
			}
		}
	}
	cases := []struct {
		name  string
		run   func() error
		check func(*testing.T, error)
	}{
		{"cancel/sink body", func() error {
			_, _, err := RunExact(&Query{Fact: fact, Ctx: canceled}, []string{"f_group"}, sums(Col("f_val")), 2)
			return err
		}, is(context.Canceled)},
		{"cancel/fold body", func() error {
			_, _, _, err := foldSums(&Query{Fact: fact, Ctx: canceled}, val, 2)
			return err
		}, is(context.Canceled)},
		{"expired deadline/sample build", func() error {
			_, _, err := runStratified(&Query{Fact: fact, Ctx: expired}, ExprsFromNames([]string{"f_group", "f_val"}), 1, 10, 1, 2)
			return err
		}, is(context.DeadlineExceeded)},
		{"panic/poisoned sink", func() error {
			sinks := []rowSink{&panicSink{}, &panicSink{}, &panicSink{}, &panicSink{}}
			_, err := runPipeline(&Query{Fact: fact}, ExprsFromNames([]string{"f_group", "f_val"}), len(sinks), sinks)
			return err
		}, isPanic("poisoned sink kernel", "scan_test.go")},
		{"panic/sink body over a corrupt column", func() error {
			_, _, err := RunScan(&Query{Fact: corrupt}, "f_val", 2)
			return err
		}, isPanic("index out of range")},
		{"panic/fold body over a corrupt column", func() error {
			_, _, _, err := foldSums(&Query{Fact: corrupt}, val, 2)
			return err
		}, isPanic("index out of range")},
		{"denial/failable sink", func() error {
			// Grouping by the unique key needs ~50k hash entries across the
			// workers — far past the 1 MiB per-query budget.
			_, _, err := RunExact(&Query{Fact: buildFact(50000, 50000, 10), Budget: budget}, []string{"f_key"}, sums(Col("f_val")), 4)
			budget.ReleaseAll()
			return err
		}, func(t *testing.T, err error) {
			var me *governor.MemoryBudgetError
			if !errors.Is(err, governor.ErrMemoryBudget) || !errors.As(err, &me) || me.Scope != "query" {
				t.Fatalf("err = %v, want a query-scope MemoryBudgetError", err)
			}
			if got := gov.Stats().MemUsed; got != 0 {
				t.Fatalf("global MemUsed after ReleaseAll = %d, want 0", got)
			}
		}},
		{"denial/any body's failure poll", func() error {
			q := &Query{Fact: fact}
			plan, err := newMorselPlan(q)
			if err != nil {
				return err
			}
			_, err = plan.run(q, 3, 0, 0, func(int) (morselBody, func() error) {
				seen := 0
				body := func(*scanWorker, morsel, morselVerdict) (int, time.Duration) {
					seen++
					return 0, 0
				}
				return body, func() error {
					if seen > 0 {
						return errDenied
					}
					return nil
				}
			})
			return err
		}, is(errDenied)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.run()
			if err == nil {
				t.Fatal("the run must fail")
			}
			c.check(t, err)
		})
	}

	// The engine is still fully functional: a healthy query of each body
	// runs cleanly afterwards.
	sam, _, err := runStratified(&Query{Fact: fact, Ctx: context.Background()}, ExprsFromNames([]string{"f_group", "f_val"}), 1, 16, 1, 4)
	if err != nil {
		t.Fatalf("sample build after the failed runs: %v", err)
	}
	if sam.TotalWeight() != 500000 {
		t.Fatalf("sample build after the failed runs: weight %v", sam.TotalWeight())
	}
	if _, count, _, err := foldSums(&Query{Fact: fact}, val, 4); err != nil || count != 500000 {
		t.Fatalf("fused aggregate after the failed runs: count %d, err %v", count, err)
	}
}
