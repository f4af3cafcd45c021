package bench

import (
	"fmt"
	"time"

	"laqy/internal/algebra"
	"laqy/internal/approx"
	"laqy/internal/core"
	"laqy/internal/engine"
	"laqy/internal/sample"
	"laqy/internal/store"
	"laqy/internal/workload"
)

// Sequence experiments: the exploratory workloads of Figures 9–15 and the
// §8 drift extension. A sequence of range queries on lo_intkey runs under
// five strategies:
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

// Sequence names one of the harness's exploratory query sequences.
type Sequence int

const (
	// Long is the paper's long-running sequence: 50 queries over one focus
	// region (Figures 9a, 10a, 11, 12 and 14).
	Long Sequence = iota
	// Short is the short-running sequence: 3×20 queries, each batch a
	// fresh focus region (Figures 9b, 10b, 13 and 15).
	Short
	// Drift is the concept-drift extension (the paper's Section 8
	// discussion): a 10%-wide focus window sliding by 25% of its width per
	// query, 30 queries. A full-match-only cache almost never hits, while
	// LAQy pays a bounded Δ per query.
	Drift
)

// String returns the sequence's name as the tables print it.
func (s Sequence) String() string {
	return [...]string{"long-running", "short-running", "drifting"}[s]
}

// Steps generates the sequence over the fact key domain.
func (s Sequence) Steps(cfg Config) []workload.Step {
	wcfg := workload.Config{Domain: int64(cfg.Rows), Seed: cfg.Seed + 0xA11CE}
	switch s {
	case Long:
		return workload.LongRunning(wcfg, 50)
	case Short:
		return workload.ShortRunning(wcfg, 3, 20)
	default:
		wcfg.Seed = cfg.Seed + 0xD81F
		return workload.Drifting(wcfg, 30, 0.10, 0.25)
	}
}

// queryShape is the Q1 or Q2 query of one step: the sampler's request
// (query, predicate, schema, QCS width) and the exact baseline's groups.
type queryShape struct {
	core.Request
	groupBy []string
}

func (d *Data) shape(step workload.Step, q2 bool) (queryShape, error) {
	keyRange := algebra.NewPredicate().WithRange("lo_intkey", step.Lo, step.Hi)
	if !q2 {
		return queryShape{core.Request{
			Query:     &engine.Query{Fact: d.Lineorder, Filter: keyRange},
			Predicate: keyRange,
			Schema:    sample.Schema{"lo_orderdate", "lo_revenue", "lo_intkey"},
			QCSWidth:  1,
		}, []string{"lo_orderdate"}}, nil
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
	return queryShape{core.Request{
		Query:     q,
		Predicate: keyRange.WithPoint("s_region", region).WithPoint("p_category", category),
		Schema:    sample.Schema{"d_year", "p_brand1", "lo_revenue", "lo_intkey"},
		QCSWidth:  2,
	}, []string{"d_year", "p_brand1"}}, nil
}

// q1 is the Q1 shape over lo_intkey ∈ [lo, hi].
func (d *Data) q1(lo, hi int64) queryShape {
	sh, _ := d.shape(workload.Step{Lo: lo, Hi: hi}, false) // only Q2 can fail
	return sh
}

// scanFloor runs the ungrouped exact SUM(lo_revenue) the way db.Query
// does — engine.RunExact, which folds it into the scan over the bare fact
// table and runs the group-by sink behind joins — and returns its stats:
// the exact-scan floor that approximation methods try to dip below (the
// "scan" series of Figures 14 and 15).
func scanFloor(q *engine.Query, workers int) (engine.Stats, error) {
	_, st, err := engine.RunExact(q, nil, sumRevenue, workers)
	return st, err
}

// sumRevenue is the one output of the exact baselines: SUM(lo_revenue).
var sumRevenue = []engine.Agg{{Expr: engine.Col("lo_revenue"), Kind: approx.Sum}}

// SeqRecord is one query's measurements under all strategies.
type SeqRecord struct {
	Step   workload.Step
	Exact  engine.Stats
	Online engine.Stats
	Scan   engine.Stats
	// FullMatchTotal is the end-to-end time under full-match-only reuse.
	FullMatchTotal time.Duration
	Lazy           engine.Stats // Δ/online execution share of the lazy path
	LazyMode       core.Mode
	// LazyMergeTime is the sample merge/tighten share of the lazy path.
	LazyMergeTime time.Duration
	// LazyTotal is the end-to-end lazy request time.
	LazyTotal time.Duration
	// LazyMissing is the Δ-range size in keys (0 on full reuse).
	LazyMissing int64
}

// SeqResult is a full sequence run.
type SeqResult struct {
	Seq  Sequence
	Q2   bool
	Recs []SeqRecord
	// Domain is the key-domain size for selectivity conversion.
	Domain int64
}

// Name labels the run: the sequence and the query shape.
func (r *SeqResult) Name() string { return r.Seq.String() + " " + r.query() }

func (r *SeqResult) query() string { return pick(r.Q2, "Q2", "Q1") }

// pick returns a if c holds, b otherwise: panel letters and labels.
func pick(c bool, a, b string) string {
	if c {
		return a
	}
	return b
}

// seqK scales the per-stratum capacity so the sample footprint stays a
// small fraction of the data, preserving the paper's sample≪data regime:
// at SF1000 (6B rows) the paper's k=2000 over ~2500 date strata is ~0.1%
// of the data; a laptop-scale run with the same k would make the sample
// larger than the dataset and inflate sample-side (merge/tighten) costs
// beyond anything the paper's setup exhibits.
func (d *Data) seqK() int {
	return min(max(d.Cfg.Rows/25_000, 16), d.Cfg.K) // ≈2500 strata → sample ≈ 10% of rows
}

// request is the lazy sampler's request for one step's query shape.
func (d *Data) request(sh queryShape, seed uint64) core.Request {
	req := sh.Request
	req.K, req.Seed, req.Workers = d.seqK(), seed, d.Cfg.Workers
	return req
}

// RunSequence executes an exploratory sequence under all five strategies.
// The lazy strategy's sample store persists across the whole sequence
// (including short-sequence batch changes, where cold starts appear at
// queries 0, 20 and 40 only on first contact with a region).
func RunSequence(d *Data, seq Sequence, q2 bool) (*SeqResult, error) {
	lazy := core.New(store.New(0), d.Cfg.Seed+7)
	lazy.SetObs(d.Obs)
	fullMatch := core.New(store.New(0), d.Cfg.Seed+8)
	fullMatch.SetObs(d.Obs)
	out := &SeqResult{Seq: seq, Q2: q2, Domain: int64(d.Cfg.Rows)}

	for i, step := range seq.Steps(d.Cfg) {
		sh, err := d.shape(step, q2)
		if err != nil {
			return nil, err
		}
		rec := SeqRecord{Step: step}

		// Exact GroupBy baseline.
		if _, rec.Exact, err = engine.RunExact(sh.Query, sh.groupBy, sumRevenue, d.Cfg.Workers); err != nil {
			return nil, err
		}
		// Workload-oblivious online sampling.
		if _, rec.Online, err = engine.RunStratifiedExprs(sh.Query, engine.ExprsFromNames(sh.Schema), sh.QCSWidth,
			d.seqK(), d.Cfg.Seed+uint64(1000+i), d.Cfg.Workers); err != nil {
			return nil, err
		}
		// Scan floor.
		if rec.Scan, err = scanFloor(sh.Query, d.Cfg.Workers); err != nil {
			return nil, err
		}
		// Taster-style full-match-only caching.
		fmReq := d.request(sh, d.Cfg.Seed+uint64(3000+i))
		fmReq.DisablePartial = true
		fm, err := fullMatch.Sample(fmReq)
		if err != nil {
			return nil, err
		}
		rec.FullMatchTotal = fm.Total
		// LAQy.
		res, err := lazy.Sample(d.request(sh, d.Cfg.Seed+uint64(2000+i)))
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

// Fig9 reproduces Figures 9a/9b: per-query effective input selectivity —
// the full range for workload-oblivious strategies vs only the Δ-range the
// run's LAQy strategy sampled.
func Fig9(r *SeqResult) *Table {
	t := &Table{
		ID:     "fig9" + pick(r.Seq == Long, "a", "b"),
		Title:  r.Seq.String() + " sequence: per-query selectivity, online vs LAQy",
		Header: []string{"query", "kind", "online sel", "laqy sel"},
	}
	for i, rec := range r.Recs {
		t.Append(fmt.Sprint(i), rec.Step.Kind.String(),
			pct(float64(rec.Step.Width())/float64(r.Domain)),
			pct(float64(rec.LazyMissing)/float64(r.Domain)))
	}
	return t
}

// Fig10 reproduces Figure 10: cumulative selectivity processed across the
// sequence. Online sampling re-processes overlapping ranges and exceeds
// 100%; LAQy is bounded by 100% of the data.
func Fig10(r *SeqResult) *Table {
	t := &Table{
		ID:     "fig10" + pick(r.Seq == Long, "a", "b"),
		Title:  r.Seq.String() + " sequence: cumulative selectivity processed",
		Header: []string{"query", "online cumulative", "laqy cumulative"},
	}
	var onlineCum, lazyCum float64
	for i, rec := range r.Recs {
		onlineCum += float64(rec.Step.Width()) / float64(r.Domain)
		lazyCum += float64(rec.LazyMissing) / float64(r.Domain)
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
		Title:  r.Name() + ": cumulative processing-time breakdown (ms)",
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
	t := &Table{
		ID:     pick(r.Seq == Long, "fig12", "fig13") + pick(r.Q2, "b", "a"),
		Title:  r.Name() + ": per-query execution time (ms)",
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
	t := &Table{
		ID:     pick(r.Seq == Long, "fig14", "fig15") + pick(r.Q2, "b", "a"),
		Title:  r.Name() + ": cumulative execution time (ms)",
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

// DriftTable reports the drift sequence every 10 queries: each strategy's
// cumulative cost and how LAQy's queries were served. Expected shape:
// full-match-only caching degenerates to online cost while LAQy serves
// nearly every query with a bounded Δ.
func DriftTable(r *SeqResult) *Table {
	t := &Table{
		ID:    "drift",
		Title: "drifting focus window: per-strategy cumulative cost (ms)",
		Header: []string{"queries", "online", "fullmatch", "laqy",
			"laqy offline/partial/online"},
	}
	var on, fm, lz time.Duration
	modes := map[core.Mode]int{}
	for i, rec := range r.Recs {
		on += rec.Online.Wall
		fm += rec.FullMatchTotal
		lz += rec.LazyTotal
		modes[rec.LazyMode]++
		if (i+1)%10 == 0 {
			t.Append(fmt.Sprint(i+1), ms(on), ms(fm), ms(lz), fmt.Sprintf("%d/%d/%d",
				modes[core.ModeOffline], modes[core.ModePartial], i+1-modes[core.ModeOffline]-modes[core.ModePartial]))
		}
	}
	return t
}

// totals sums the run's online, full-match-only and LAQy times.
func (r *SeqResult) totals() (online, fullMatch, lazy time.Duration) {
	for _, rec := range r.Recs {
		online += rec.Online.Wall
		fullMatch += rec.FullMatchTotal
		lazy += rec.LazyTotal
	}
	return online, fullMatch, lazy
}

// Speedup returns cumulative online time divided by cumulative LAQy time —
// the paper's headline metric (2.5×–19.3× in its exploratory workloads).
func (r *SeqResult) Speedup() float64 {
	on, _, lz := r.totals()
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
		on, fm, lz := r.totals()
		t.Append(r.Seq.String(), r.query(), ms(on), ms(fm), ms(lz),
			speedup(on, lz), speedup(fm, lz))
	}
	return t
}
