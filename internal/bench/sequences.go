package bench

import (
	"fmt"
	"time"

	"laqy/internal/algebra"
	"laqy/internal/core"
	"laqy/internal/engine"
	"laqy/internal/sample"
	"laqy/internal/store"
	"laqy/internal/workload"
)

// Sequence experiments: the exploratory workloads of Figures 9–15. A
// sequence of range queries on lo_intkey runs under five strategies:
//
//	exact     — the optimized exact GroupBy (same access pattern as sampling);
//	online    — workload-oblivious online sampling (fresh sample per query);
//	fullmatch — Taster-style caching: reuse only on full subsumption (the
//	            paper's Issue #2 baseline);
//	lazy      — LAQy (sample store + Δ-samples + merging);
//	scan      — a bare filtered scan, the memory-bandwidth floor.
//
// Q1 places the sampler at the scan (GROUP BY lo_orderdate over the fact
// table); Q2 places it after three dimension joins (GROUP BY d_year,
// p_brand1 with region and category filters).

// steps generates the paper's two sequence shapes over the fact key domain.
func (d *Data) steps(long bool) []workload.Step {
	wcfg := workload.Config{Domain: int64(d.Cfg.Rows), Seed: d.Cfg.Seed + 0xA11CE}
	if long {
		return workload.LongRunning(wcfg, 50)
	}
	return workload.ShortRunning(wcfg, 3, 20)
}

// queryShape builds the Q1 or Q2 engine query and sampler description for
// one step of the sequence.
type queryShape struct {
	query    *engine.Query
	pred     algebra.Predicate
	groupBy  []string
	schema   sample.Schema
	qcsWidth int
}

func (d *Data) shape(step workload.Step, q2 bool) (queryShape, error) {
	keyRange := algebra.NewPredicate().WithRange("lo_intkey", step.Lo, step.Hi)
	if !q2 {
		return queryShape{
			query:    &engine.Query{Fact: d.Lineorder, Filter: keyRange},
			pred:     keyRange,
			groupBy:  []string{"lo_orderdate"},
			schema:   sample.Schema{"lo_orderdate", "lo_revenue", "lo_intkey"},
			qcsWidth: 1,
		}, nil
	}
	region, ok := d.SSB.Supplier.Column("s_region").Dict.Code("AMERICA")
	if !ok {
		return queryShape{}, fmt.Errorf("bench: AMERICA missing from s_region dictionary")
	}
	category, ok := d.SSB.Part.Column("p_category").Dict.Code("MFGR#12")
	if !ok {
		return queryShape{}, fmt.Errorf("bench: MFGR#12 missing from p_category dictionary")
	}
	q := &engine.Query{
		Fact:   d.Lineorder,
		Filter: keyRange,
		Joins: []engine.Join{
			{Dim: d.SSB.Date, FactKey: "lo_orderdate", DimKey: "d_datekey"},
			{Dim: d.SSB.Supplier, FactKey: "lo_suppkey", DimKey: "s_suppkey",
				Filter: algebra.NewPredicate().WithPoint("s_region", region)},
			{Dim: d.SSB.Part, FactKey: "lo_partkey", DimKey: "p_partkey",
				Filter: algebra.NewPredicate().WithPoint("p_category", category)},
		},
	}
	pred := keyRange.WithPoint("s_region", region).WithPoint("p_category", category)
	return queryShape{
		query:    q,
		pred:     pred,
		groupBy:  []string{"d_year", "p_brand1"},
		schema:   sample.Schema{"d_year", "p_brand1", "lo_revenue", "lo_intkey"},
		qcsWidth: 2,
	}, nil
}

// scanFloor runs the ungrouped exact SUM(lo_revenue) the way db.Query
// routes it — the fused scan over the bare fact table, the group-by sink
// with no group columns behind joins — and returns its stats: the exact-scan
// floor that approximation methods try to dip below (the "scan" series of
// Figures 14 and 15).
func scanFloor(q *engine.Query, workers int) (engine.Stats, error) {
	if len(q.Joins) == 0 {
		_, st, err := engine.RunAggregate(q, engine.Cols([]string{"lo_revenue"}), workers)
		return st, err
	}
	_, st, err := engine.RunGroupBy(q, nil, "lo_revenue", workers)
	return st, err
}

// SeqRecord is one query's measurements under all strategies.
type SeqRecord struct {
	Step   workload.Step
	Exact  engine.Stats
	Online engine.Stats
	Scan   engine.Stats
	// FullMatchTotal is the end-to-end time under full-match-only reuse.
	FullMatchTotal time.Duration
	// FullMatchMode is the reuse path full-match-only caching took.
	FullMatchMode core.Mode
	Lazy          engine.Stats // Δ/online execution share of the lazy path
	LazyMode      core.Mode
	// LazyMergeTime is the sample merge/tighten share of the lazy path.
	LazyMergeTime time.Duration
	// LazyTotal is the end-to-end lazy request time.
	LazyTotal time.Duration
	// LazyMissing is the Δ-range size in keys (0 on full reuse).
	LazyMissing int64
}

// SeqResult is a full sequence run.
type SeqResult struct {
	Long bool
	Q2   bool
	Recs []SeqRecord
	// Domain is the key-domain size for selectivity conversion.
	Domain int64
}

// seqK scales the per-stratum capacity so the sample footprint stays a
// small fraction of the data, preserving the paper's sample≪data regime:
// at SF1000 (6B rows) the paper's k=2000 over ~2500 date strata is ~0.1%
// of the data; a laptop-scale run with the same k would make the sample
// larger than the dataset and inflate sample-side (merge/tighten) costs
// beyond anything the paper's setup exhibits.
func (d *Data) seqK() int {
	k := d.Cfg.Rows / 25_000 // ≈2500 strata → sample ≈ 10% of rows
	if k < 16 {
		k = 16
	}
	if k > d.Cfg.K {
		k = d.Cfg.K
	}
	return k
}

// RunSequence executes the paper's exploratory sequence under all four
// strategies. The lazy strategy's sample store persists across the whole
// sequence (including short-sequence batch changes, where cold starts
// appear at queries 0, 20 and 40 only on first contact with a region).
func RunSequence(d *Data, long, q2 bool) (*SeqResult, error) {
	steps := d.steps(long)
	k := d.seqK()
	lazy := core.New(store.New(0), d.Cfg.Seed+7)
	lazy.SetObs(d.Obs)
	fullMatch := core.New(store.New(0), d.Cfg.Seed+8)
	fullMatch.SetObs(d.Obs)
	out := &SeqResult{Long: long, Q2: q2, Domain: int64(d.Cfg.Rows)}

	for i, step := range steps {
		sh, err := d.shape(step, q2)
		if err != nil {
			return nil, err
		}
		rec := SeqRecord{Step: step}

		// Exact GroupBy baseline.
		if _, st, err := engine.RunGroupBy(sh.query, sh.groupBy, "lo_revenue", d.Cfg.Workers); err != nil {
			return nil, err
		} else {
			rec.Exact = st
		}
		// Workload-oblivious online sampling.
		if _, st, err := engine.RunStratified(sh.query, sh.schema, sh.qcsWidth, k,
			d.Cfg.Seed+uint64(1000+i), d.Cfg.Workers); err != nil {
			return nil, err
		} else {
			rec.Online = st
		}
		// Scan floor.
		if st, err := scanFloor(sh.query, d.Cfg.Workers); err != nil {
			return nil, err
		} else {
			rec.Scan = st
		}
		// Taster-style full-match-only caching.
		fm, err := fullMatch.Sample(core.Request{
			Query:          sh.query,
			Predicate:      sh.pred,
			Schema:         sh.schema,
			QCSWidth:       sh.qcsWidth,
			K:              k,
			Seed:           d.Cfg.Seed + uint64(3000+i),
			Workers:        d.Cfg.Workers,
			DisablePartial: true,
		})
		if err != nil {
			return nil, err
		}
		rec.FullMatchTotal = fm.Total
		rec.FullMatchMode = fm.Mode
		// LAQy.
		res, err := lazy.Sample(core.Request{
			Query:     sh.query,
			Predicate: sh.pred,
			Schema:    sh.schema,
			QCSWidth:  sh.qcsWidth,
			K:         k,
			Seed:      d.Cfg.Seed + uint64(2000+i),
			Workers:   d.Cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		rec.Lazy = res.Stats
		rec.LazyMode = res.Mode
		rec.LazyMergeTime = res.MergeTime
		rec.LazyTotal = res.Total
		if res.Mode != core.ModeOffline {
			rec.LazyMissing = res.Missing.Count()
		}
		out.Recs = append(out.Recs, rec)
	}
	return out, nil
}

func seqName(long bool) string {
	if long {
		return "long-running"
	}
	return "short-running"
}

func queryName(q2 bool) string {
	if q2 {
		return "Q2"
	}
	return "Q1"
}

// Fig9 reproduces Figures 9a/9b: per-query effective input selectivity —
// the full range for workload-oblivious strategies vs only the Δ-range for
// LAQy. Pure predicate simulation, no engine time.
func Fig9(d *Data, long bool) *Table {
	id := "fig9a"
	if !long {
		id = "fig9b"
	}
	t := &Table{
		ID:     id,
		Title:  seqName(long) + " sequence: per-query selectivity, online vs LAQy",
		Header: []string{"query", "kind", "online sel", "laqy sel"},
	}
	covered := algebra.Set{}
	for i, step := range d.steps(long) {
		rng := algebra.SetOf(step.Interval())
		missing := rng.Subtract(covered)
		covered = covered.Union(rng)
		t.Append(fmt.Sprint(i), step.Kind.String(),
			pct(float64(rng.Count())/float64(d.Cfg.Rows)),
			pct(float64(missing.Count())/float64(d.Cfg.Rows)))
	}
	return t
}

// Fig10 reproduces Figure 10: cumulative selectivity processed across the
// sequence. Online sampling re-processes overlapping ranges and exceeds
// 100%; LAQy is bounded by 100% of the data.
func Fig10(d *Data, long bool) *Table {
	suffix := "a"
	if !long {
		suffix = "b"
	}
	t := &Table{
		ID:     "fig10" + suffix,
		Title:  seqName(long) + " sequence: cumulative selectivity processed",
		Header: []string{"query", "online cumulative", "laqy cumulative"},
	}
	covered := algebra.Set{}
	var onlineCum, lazyCum float64
	for i, step := range d.steps(long) {
		rng := algebra.SetOf(step.Interval())
		missing := rng.Subtract(covered)
		covered = covered.Union(rng)
		onlineCum += float64(rng.Count()) / float64(d.Cfg.Rows)
		lazyCum += float64(missing.Count()) / float64(d.Cfg.Rows)
		t.Append(fmt.Sprint(i), pct(onlineCum), pct(lazyCum))
	}
	return t
}

// Fig11 reproduces Figure 11: the cumulative processing-time breakdown
// (scan / post-scan processing / merge) of the Q1 long sequence for online
// sampling vs LAQy. Expected shape: LAQy's scan and process shares shrink
// with reuse; the merge share stays negligible.
func Fig11(r *SeqResult) *Table {
	t := &Table{
		ID:     "fig11",
		Title:  fmt.Sprintf("%s %s: cumulative processing-time breakdown (ms)", seqName(r.Long), queryName(r.Q2)),
		Header: []string{"strategy", "scan", "process", "merge", "total"},
	}
	var onScan, onProc, onMerge time.Duration
	var lzScan, lzProc, lzMerge time.Duration
	for _, rec := range r.Recs {
		onScan += rec.Online.Scan
		onProc += rec.Online.Process
		onMerge += rec.Online.Merge
		lzScan += rec.Lazy.Scan
		lzProc += rec.Lazy.Process
		lzMerge += rec.Lazy.Merge + rec.LazyMergeTime
	}
	t.Append("online", ms(onScan), ms(onProc), ms(onMerge), ms(onScan+onProc+onMerge))
	t.Append("laqy", ms(lzScan), ms(lzProc), ms(lzMerge), ms(lzScan+lzProc+lzMerge))
	return t
}

// PerQueryTable reproduces Figures 12 (long) and 13 (short): per-query
// execution time for each strategy. Expected shape: LAQy at or below
// online everywhere, dipping to ~0 on full reuse; cold starts (short
// sequences: queries 0/20/40) run at online cost.
func PerQueryTable(r *SeqResult) *Table {
	id := "fig12"
	if !r.Long {
		id = "fig13"
	}
	if r.Q2 {
		id += "b"
	} else {
		id += "a"
	}
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("%s %s: per-query execution time (ms)", seqName(r.Long), queryName(r.Q2)),
		Header: []string{"query", "kind", "exact", "online", "laqy", "scan", "laqy mode"},
	}
	for i, rec := range r.Recs {
		t.Append(fmt.Sprint(i), rec.Step.Kind.String(),
			ms(rec.Exact.Wall), ms(rec.Online.Wall), ms(rec.LazyTotal), ms(rec.Scan.Wall),
			rec.LazyMode.String())
	}
	return t
}

// CumulativeTable reproduces Figures 14 (long) and 15 (short): cumulative
// execution time per strategy across the sequence.
func CumulativeTable(r *SeqResult) *Table {
	id := "fig14"
	if !r.Long {
		id = "fig15"
	}
	if r.Q2 {
		id += "b"
	} else {
		id += "a"
	}
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("%s %s: cumulative execution time (ms)", seqName(r.Long), queryName(r.Q2)),
		Header: []string{"query", "exact", "online", "fullmatch", "laqy", "scan"},
	}
	var ex, on, fm, lz, sc time.Duration
	for i, rec := range r.Recs {
		ex += rec.Exact.Wall
		on += rec.Online.Wall
		fm += rec.FullMatchTotal
		lz += rec.LazyTotal
		sc += rec.Scan.Wall
		t.Append(fmt.Sprint(i), ms(ex), ms(on), ms(fm), ms(lz), ms(sc))
	}
	return t
}

// Speedup returns cumulative online time divided by cumulative LAQy time —
// the paper's headline metric (2.5×–19.3× in its exploratory workloads).
func (r *SeqResult) Speedup() float64 {
	var on, lz time.Duration
	for _, rec := range r.Recs {
		on += rec.Online.Wall
		lz += rec.LazyTotal
	}
	if lz == 0 {
		return 0
	}
	return float64(on) / float64(lz)
}

// Headline summarizes the sequences' end-to-end speedups.
func Headline(results []*SeqResult) *Table {
	t := &Table{
		ID:    "headline",
		Title: "LAQy speedup over online sampling and full-match-only caching",
		Header: []string{"sequence", "query", "online (ms)", "fullmatch (ms)", "laqy (ms)",
			"vs online", "vs fullmatch"},
	}
	for _, r := range results {
		var on, fm, lz time.Duration
		for _, rec := range r.Recs {
			on += rec.Online.Wall
			fm += rec.FullMatchTotal
			lz += rec.LazyTotal
		}
		vsFM := 0.0
		if lz > 0 {
			vsFM = float64(fm) / float64(lz)
		}
		t.Append(seqName(r.Long), queryName(r.Q2), ms(on), ms(fm), ms(lz),
			fmt.Sprintf("%.1fx", r.Speedup()), fmt.Sprintf("%.1fx", vsFM))
	}
	return t
}
