// Benchmarks regenerating every table and figure of the LAQy paper's
// evaluation (one Benchmark per artifact; see DESIGN.md §3 for the map),
// plus ablations of the design choices DESIGN.md §4 calls out.
//
// Figure-level runs use laptop-scale data: shapes, not absolute numbers,
// are the reproduction target. cmd/laqy-bench prints the full series; these
// benchmarks time the underlying operations so `go test -bench=.` tracks
// regressions.
package laqy_test

//laqy:allow rngsource deliberate math/rand baseline for the §6.2 PRNG ablation benchmark

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"laqy"
	"laqy/internal/algebra"
	"laqy/internal/bench"
	"laqy/internal/core"
	"laqy/internal/engine"
	"laqy/internal/expr"
	"laqy/internal/rng"
	"laqy/internal/sample"
	"laqy/internal/store"
)

// benchRows keeps `go test -bench=.` runtimes reasonable while preserving
// the experiments' shapes; cmd/laqy-bench defaults to 2M rows.
const benchRows = 300_000

var (
	benchDataOnce sync.Once
	benchData     *bench.Data
	benchDataErr  error
)

var (
	benchDBOnce sync.Once
	benchDB     *laqy.DB
	benchDBErr  error
)

// openBenchDB lazily builds a shared DB for the public-API benchmarks.
func openBenchDB(b *testing.B) *laqy.DB {
	b.Helper()
	benchDBOnce.Do(func() {
		benchDB = laqy.Open(laqy.Config{DefaultK: 512, Seed: 5})
		benchDBErr = benchDB.LoadSSB(benchRows, 1)
	})
	if benchDBErr != nil {
		b.Fatal(benchDBErr)
	}
	return benchDB
}

func data(b *testing.B) *bench.Data {
	b.Helper()
	benchDataOnce.Do(func() {
		benchData, benchDataErr = bench.NewData(bench.Config{Rows: benchRows, Seed: 1, K: 512})
	})
	if benchDataErr != nil {
		b.Fatal(benchDataErr)
	}
	return benchData
}

// runFigure times each case of a micro-benchmark figure as a sub-benchmark:
// the same case list and body `laqy-bench -exp <id>` tabulates.
func runFigure(b *testing.B, f bench.Figure) {
	for _, c := range f.Cases {
		b.Run(f.Table.ID+"/"+c.Row+"/"+c.Col, func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				dur, err := c.Run()
				if err != nil {
					b.Fatal(err)
				}
				total += dur
			}
			b.ReportMetric(float64(total.Nanoseconds())/1e6/float64(b.N), "case_ms")
		})
	}
}

// BenchmarkFig03_BuildVsTuplesStrata times stratified-sample admission
// across the (tuples × strata) grid of Figure 3.
func BenchmarkFig03_BuildVsTuplesStrata(b *testing.B) { runFigure(b, bench.Fig3(data(b))) }

// BenchmarkFig04_ReservoirCapacity shows k's marginal impact (Figure 4):
// compare across sub-benchmarks — time barely moves with k.
func BenchmarkFig04_ReservoirCapacity(b *testing.B) { runFigure(b, bench.Fig4(data(b))) }

// BenchmarkFig06_PredicateUnpredictability times the three predicate
// strategies of Figure 6 across its selectivity sweep: QVS pushdown
// (cheap), column-in-QCS (expensive, the all-or-none penalty), QCS
// pushdown.
func BenchmarkFig06_PredicateUnpredictability(b *testing.B) { runFigure(b, bench.Fig6(data(b))) }

// BenchmarkFig08_GroupByVsStratified compares the exact GroupBy with
// stratified sampling under QCS- and QVS-selectivity (Figures 8a–8c).
func BenchmarkFig08_GroupByVsStratified(b *testing.B) {
	for _, f := range bench.Fig8(data(b)) {
		runFigure(b, f)
	}
}

// BenchmarkFig09to15_Sequences runs the exploratory sequences behind
// Figures 9–15 (Δ-sampled selectivity, per-query and cumulative times for
// Q1/Q2, long/short) and the §8 drift sequence, and reports the headline
// online/LAQy speedup as a custom metric.
func BenchmarkFig09to15_Sequences(b *testing.B) {
	d := data(b)
	for _, seq := range []bench.Sequence{bench.Long, bench.Short, bench.Drift} {
		for _, q2 := range []bool{false, true} {
			if seq == bench.Drift && q2 {
				continue
			}
			name := seq.String() + "/Q1"
			if q2 {
				name = seq.String() + "/Q2"
			}
			b.Run(name, func(b *testing.B) {
				var speedup float64
				for i := 0; i < b.N; i++ {
					r, err := bench.RunSequence(d, seq, q2)
					if err != nil {
						b.Fatal(err)
					}
					speedup = r.Speedup()
				}
				b.ReportMetric(speedup, "speedup_vs_online")
			})
		}
	}
}

// BenchmarkLazySampler_Modes times the three Algorithm 1 paths in
// isolation: online (cold store), partial (Δ only), offline (no scan).
func BenchmarkLazySampler_Modes(b *testing.B) {
	d := data(b)
	mkReq := func(lo, hi int64) core.Request {
		pred := algebra.NewPredicate().WithRange("lo_intkey", lo, hi)
		return core.Request{
			Query:     &engine.Query{Fact: d.Lineorder, Filter: pred},
			Predicate: pred,
			Schema:    sample.Schema{"lo_orderdate", "lo_revenue", "lo_intkey"},
			QCSWidth:  1,
			K:         512,
			Seed:      3,
		}
	}
	half := int64(benchRows / 2)
	b.Run("online", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l := core.New(store.New(0), 1)
			if _, err := l.Sample(mkReq(0, half)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("partial", func(b *testing.B) {
		b.StopTimer()
		for i := 0; i < b.N; i++ {
			l := core.New(store.New(0), 1)
			if _, err := l.Sample(mkReq(0, half)); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			// Δ covers 10% beyond the stored sample.
			if _, err := l.Sample(mkReq(0, half+int64(benchRows/10))); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
		}
	})
	b.Run("offline", func(b *testing.B) {
		l := core.New(store.New(0), 1)
		if _, err := l.Sample(mkReq(0, half)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := l.Sample(mkReq(0, half)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReuseHit times — and, with its allocation columns, sizes — one
// reuse hit through the public API, answer rows included, in the benchmark's
// Q1 shape (k = 32 over ~2.4 k date strata, reservoirs overflowing): a full
// reuse narrowed by the query (the stored sample read through its tightening
// predicate), a full reuse of the same range, and a partial reuse whose Δ
// touches a minority of the strata it is merged into. `make bench-smoke` runs
// one iteration so the per-hit allocation count has a row CI can see.
func BenchmarkReuseHit(b *testing.B) {
	db := openBenchDB(b)
	const half = int64(benchRows / 2)
	hit := func(b *testing.B, lo, hi int64, want laqy.Mode) {
		res, err := db.Query(fmt.Sprintf(`SELECT lo_orderdate, SUM(lo_revenue) FROM lineorder
			WHERE lo_intkey BETWEEN %d AND %d GROUP BY lo_orderdate APPROX WITH K 32`, lo, hi))
		if err != nil {
			b.Fatal(err)
		}
		if res.Mode != want || len(res.Rows) < 2000 {
			b.Fatalf("[%d,%d]: mode %q with %d rows, want %q over ~2.4k strata", lo, hi, res.Mode, len(res.Rows), want)
		}
	}
	for _, c := range []struct {
		name   string
		lo, hi int64
	}{
		{"offline-narrowed", half / 4, half / 2},
		{"offline-same", 0, half},
	} {
		b.Run(c.name, func(b *testing.B) {
			db.ClearSamples()
			hit(b, 0, half, laqy.ModeOnline)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hit(b, c.lo, c.hi, laqy.ModeOffline)
			}
		})
	}
	b.Run("partial-small-delta", func(b *testing.B) {
		// Each hit extends the stored range by 300 rows; start over from the
		// half-table sample before the extensions run off the table.
		const delta, laps = 300, 400
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			step := int64(i % laps)
			if step == 0 {
				b.StopTimer()
				db.ClearSamples()
				hit(b, 0, half, laqy.ModeOnline)
				b.StartTimer()
			}
			hit(b, 0, half+delta*(step+1), laqy.ModePartial)
		}
	})
}

// BenchmarkAppend times one 2 500-row append to a 0.5 M- and a 2 M-row
// table of four int64 columns with no stored samples: the storage share of
// an append, with the columns' amortized growth in its bytes per op. Every
// 50 appends the table is loaded afresh, off the clock, so its size stays
// near the label; the first append after a load moves the loaded columns
// into vectors with spare capacity, as every table's first append does.
func BenchmarkAppend(b *testing.B) {
	const batch, lap = 2500, 50
	cols := []string{"a", "b", "c", "d"}
	for _, rows := range []int{500_000, 2_000_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			loaded := make([]int64, rows)
			for i := range loaded {
				loaded[i] = int64(i)
			}
			batches := make([]*laqy.TableBuilder, lap)
			for i := range batches {
				vals := make([]int64, batch)
				for j := range vals {
					vals[j] = int64(rows + i*batch + j)
				}
				batches[i] = laqy.NewTable("t")
				for _, c := range cols {
					batches[i].Int64(c, vals)
				}
			}
			var db *laqy.DB
			b.SetBytes(int64(batch * len(cols) * 8))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%lap == 0 {
					b.StopTimer()
					db = laqy.Open(laqy.Config{})
					tb := laqy.NewTable("t")
					for _, c := range cols {
						tb.Int64(c, loaded)
					}
					if err := db.Register(tb); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if err := db.Append("t", batches[i%lap]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_RNG compares the inlined Lehmer generator the sampler
// draws from with math/rand in the admission-control hot path (§6.2).
func BenchmarkAblation_RNG(b *testing.B) {
	b.Run("lehmer64", func(b *testing.B) {
		g := rng.NewLehmer64(1)
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink = g.Next()
		}
		_ = sink
	})
	b.Run("mathrand", func(b *testing.B) {
		g := rand.New(rand.NewSource(1))
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink = g.Uint64()
		}
		_ = sink
	})
}

// BenchmarkAblation_MergePaths times the Algorithm 2 merge cases:
// proportional (equal k), scaled-proportional (unequal k), and the
// not-full streaming path.
func BenchmarkAblation_MergePaths(b *testing.B) {
	build := func(k int, n int64, seed uint64) *sample.Reservoir {
		s := sample.NewBuilder(sample.Schema{"v", "w"}, 0, k, rng.NewLehmer64(seed))
		cols := [][]int64{make([]int64, n), make([]int64, n)}
		for v := range n {
			cols[0][v], cols[1][v] = v, v*2
		}
		s.ConsiderColumns(cols, int(n))
		return s.Stratum(sample.StratumKey{})
	}
	b.Run("proportional_equal_k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			r1 := build(1024, 10_000, uint64(i))
			r2 := build(1024, 10_000, uint64(i)+1)
			gen := rng.NewLehmer64(uint64(i) + 2)
			b.StartTimer()
			sample.Merge(r1, r2, gen)
		}
	})
	b.Run("scaled_unequal_k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			r1 := build(1024, 10_000, uint64(i))
			r2 := build(512, 10_000, uint64(i)+1)
			gen := rng.NewLehmer64(uint64(i) + 2)
			b.StartTimer()
			sample.Merge(r1, r2, gen)
		}
	})
	b.Run("notfull_stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			r1 := build(1024, 10_000, uint64(i))
			r2 := build(1024, 512, uint64(i)+1) // not full
			gen := rng.NewLehmer64(uint64(i) + 2)
			b.StartTimer()
			sample.Merge(r1, r2, gen)
		}
	})
}

// BenchmarkAblation_Pushdown quantifies filter pushdown below the sampler
// (Quickr's rule, which LAQy's Δ-queries rely on): sampling 10% of the
// input vs sampling everything and discarding afterwards.
func BenchmarkAblation_Pushdown(b *testing.B) {
	d := data(b)
	schema, qcs := sample.Schema{"lo_quantity", "lo_tax", "lo_revenue"}, 2
	sel := int64(float64(benchRows) * 0.10)
	b.Run("pushdown", func(b *testing.B) {
		q := &engine.Query{
			Fact:   d.Lineorder,
			Filter: algebra.NewPredicate().WithRange("lo_intkey", 0, sel-1),
		}
		for i := 0; i < b.N; i++ {
			if _, _, err := engine.RunStratifiedExprs(q, engine.ExprsFromNames(schema), qcs, 512, uint64(i), 0, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sample_then_filter", func(b *testing.B) {
		q := &engine.Query{Fact: d.Lineorder}
		// The sample must capture lo_intkey to filter afterwards.
		fullSchema := sample.Schema{"lo_quantity", "lo_tax", "lo_revenue", "lo_intkey"}
		keep, err := expr.CompileTuples(algebra.NewPredicate().WithRange("lo_intkey", math.MinInt64, sel-1), fullSchema)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			s, _, err := engine.RunStratifiedExprs(q, engine.ExprsFromNames(fullSchema), qcs, 512, uint64(i), 0, nil)
			if err != nil {
				b.Fatal(err)
			}
			s.Filter(keep)
		}
	})
}

// BenchmarkAblation_ReservoirLayout compares the decoupled pointer-to-
// storage reservoir layout (§6.3) against an inline-array layout for the
// strata hash table, at a small fixed capacity where inlining is feasible.
// The decoupled side is the engine's admission (Algorithm L); the inline
// side keeps the per-row Algorithm R coin, so it also pays one draw per row.
func BenchmarkAblation_ReservoirLayout(b *testing.B) {
	const k, groups, n = 8, 4950, 1_000_000
	keys := make([]int64, n)
	vals := make([]int64, n)
	g := rng.NewLehmer64(5)
	for i := range keys {
		keys[i] = int64(g.Intn(groups))
		vals[i] = int64(i)
	}
	b.Run("pointer_decoupled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sample.NewBuilder(sample.Schema{"g", "v"}, 1, k, rng.NewLehmer64(uint64(i)))
			s.ConsiderColumns([][]int64{keys, vals}, n)
		}
	})
	b.Run("inline_array", func(b *testing.B) {
		type inlineRes struct {
			weight uint64
			data   [k]int64 // values only; key is the map key
		}
		for i := 0; i < b.N; i++ {
			gen := rng.NewLehmer64(uint64(i))
			m := make(map[int64]*inlineRes)
			for j := 0; j < n; j++ {
				r, ok := m[keys[j]]
				if !ok {
					r = &inlineRes{}
					m[keys[j]] = r
				}
				r.weight++
				if r.weight <= k {
					r.data[r.weight-1] = vals[j]
				} else if slot := gen.Uint64n(r.weight); slot < k {
					r.data[slot] = vals[j]
				}
			}
		}
	})
}

// BenchmarkQueryAPI times the end-to-end public API paths (parse, plan,
// execute) for exact and approximate execution.
func BenchmarkQueryAPI(b *testing.B) {
	db := openBenchDB(b)
	const q = `SELECT lo_orderdate, SUM(lo_revenue) FROM lineorder
		WHERE lo_intkey BETWEEN 0 AND 99999 GROUP BY lo_orderdate`
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("approx_offline_reuse", func(b *testing.B) {
		if _, err := db.Query(q + " APPROX"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(q + " APPROX"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkInstrumentationOverhead guards docs/OBSERVABILITY.md's <2%
// envelope: the observability layer is per-query (span + a handful of
// counter increments), never per-row, so the exact Q1.1 hot path — a full
// fact-table scan with a star join — must cost the same with metrics
// enabled as with Config.DisableMetrics. Compare:
//
//	go test -bench=InstrumentationOverhead -count=10 | benchstat
const benchQ11 = `SELECT SUM(lo_extendedprice*lo_discount) FROM lineorder, date
	WHERE lo_orderdate = d_datekey AND d_year = 1993
	  AND lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25`

func BenchmarkInstrumentationOverhead(b *testing.B) {
	for _, tc := range []struct {
		name    string
		disable bool
	}{
		{"metrics-on", false},
		{"metrics-off", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			db := laqy.Open(laqy.Config{DefaultK: 512, Seed: 5, DisableMetrics: tc.disable})
			if err := db.LoadSSB(benchRows, 1); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(benchQ11); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
