package engine

import (
	"fmt"
	"runtime"
	"time"

	"laqy/internal/approx"
	"laqy/internal/expr"
	"laqy/internal/rng"
	"laqy/internal/sample"
)

// Stats is the per-phase execution breakdown the paper's Figure 11 plots.
//
// Scan and Process are per-worker CPU time totals divided by the number of
// workers that ran — an estimate of the wall-clock share of each phase
// under even load — while Merge and Wall are measured wall-clock durations.
type Stats struct {
	// Scan is the time spent evaluating the scan filter (predicate over
	// fact columns producing selection vectors).
	Scan time.Duration
	// Process is the time spent past the scan: join probes, gathers, and
	// sink work (aggregation or reservoir admission). The first join probe
	// of a whole morsel (morselPlan.whole) counts here too: it reads the
	// fact keys itself and produces the selection vector, and the morsel
	// has no selection pass.
	Process time.Duration
	// Merge is the time to fold per-worker partial states (and, for LAQy,
	// to merge Δ-samples with stored ones; the caller adds that share).
	Merge time.Duration
	// Wall is the end-to-end execution wall time.
	Wall time.Duration
	// RowsScanned is the number of fact rows considered by the scan
	// (including rows covered by pruned morsels, whose disqualification
	// the zone map proved without reading them).
	RowsScanned int64
	// RowsSelected is the number of rows surviving filter and joins.
	RowsSelected int64
	// Workers is the parallelism used: the workers that claimed a morsel
	// (no more than the morsel count or GOMAXPROCS), or for a segmented
	// build the worker budget, capped at the total morsel count.
	Workers int
	// MorselsPruned counts morsels skipped outright because the zone map
	// proved no row could match the scan filter.
	MorselsPruned int64
	// MorselsFull counts morsels that took the full-morsel fast path: the
	// zone map proved every row matches, so no per-row compares ran. (A
	// trivial filter makes every morsel whole too, but only zone-map-proven
	// morsels count here.)
	MorselsFull int64
	// MorselsFused counts morsels the fused aggregate path folded straight
	// into partial accumulators — the zone-map-full ones — without
	// producing a selection vector.
	MorselsFused int64
	// Segments is the number of segment-scoped builds the coordinator
	// planned (0 when no coordinator ran: a leaf build, or a plan of one
	// in-process source built directly).
	Segments int
	// SegmentsBuilt is how many of those actually ran; the difference was
	// dropped under deadline or memory pressure (the drop_segments
	// degradation rung).
	SegmentsBuilt int
	// SegmentParallelism is the concurrent segment-build degree used.
	SegmentParallelism int
	// RowsDropped counts fact rows in dropped segments — rows the merged
	// sample does not represent; callers extrapolate estimates by the
	// resulting coverage ratio.
	RowsDropped int64
	// SegmentDrops attributes each dropped segment (which segment, how
	// much weight, which shard for remote sources, why) for degradation
	// labeling and EXPLAIN ANALYZE.
	SegmentDrops []SegmentDrop
}

// Add accumulates another query's stats (used for cumulative sequences).
func (s *Stats) Add(o Stats) {
	s.Scan += o.Scan
	s.Process += o.Process
	s.Merge += o.Merge
	s.Wall += o.Wall
	s.RowsScanned += o.RowsScanned
	s.RowsSelected += o.RowsSelected
	s.MorselsPruned += o.MorselsPruned
	s.MorselsFull += o.MorselsFull
	s.MorselsFused += o.MorselsFused
	s.Segments += o.Segments
	s.SegmentsBuilt += o.SegmentsBuilt
	s.RowsDropped += o.RowsDropped
	s.SegmentDrops = append(s.SegmentDrops, o.SegmentDrops...)
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
	if o.SegmentParallelism > s.SegmentParallelism {
		s.SegmentParallelism = o.SegmentParallelism
	}
}

// rowSink consumes gathered post-join rows. cols is aligned with the
// "needed columns" order of the run; n is the row count. Each worker owns
// one sink; no synchronization inside consume.
type rowSink interface {
	consume(cols [][]int64, n int)
}

// failableSink is a rowSink that can fail mid-run (e.g. a memory-budget
// denial while growing a hash table). The morsel driver polls sinkErr at
// morsel boundaries: a non-nil error aborts the whole run — all workers,
// not just the one that tripped — and becomes the run's error. consume
// must be a no-op once sinkErr is non-nil, so one morsel of overrun is the
// worst case (the budget is soft by design).
type failableSink interface {
	rowSink
	sinkErr() error
}

// DefaultWorkers returns the engine's default parallelism.
func DefaultWorkers() int { return runtime.NumCPU() }

// runPipeline drives the scan→filter→join→gather→sink pipeline over the
// morsel driver (scan.go). exprs lists the values gathered for the sinks —
// plain columns or computed expressions (one sink per worker). It returns
// the per-phase stats; merging sink partials is the caller's job (timed
// into Stats.Merge by the callers below).
//
// The prologue (compilation, buffer setup) runs once per query and may
// allocate; the per-morsel body must not.
//
//laqy:hot per-morsel select → probe → gather → sink body
func runPipeline(q *Query, exprs []ColumnExpr, workers int, sinks []rowSink) (Stats, error) {
	if len(sinks) != workers {
		return Stats{}, fmt.Errorf("engine: %d sinks for %d workers", len(sinks), workers) //laqy:allow hotalloc cold error prologue, once per query
	}
	resolved, err := q.resolveExprs(exprs)
	if err != nil {
		return Stats{}, err
	}
	plan, err := newMorselPlan(q)
	if err != nil {
		return Stats{}, err
	}
	built, err := buildJoinTables(q)
	if err != nil {
		return Stats{}, err
	}
	// Each segment's sources and join tables, bound to its vectors once
	// here: a morsel's body only picks its segment's.
	segSources := make([][]exprSource, len(plan.segs))
	segJoins := make([][]joinTable, len(plan.segs))
	for i, s := range plan.segs { //laqy:allow ctxpoll prologue: one binding per segment, before any morsel runs
		segSources[i], segJoins[i] = bindExprs(resolved, s.seg), bindJoins(built, s.seg)
	}
	return plan.run(q, workers, len(built), len(resolved), func(w int) (morselBody, func() error) {
		sink := sinks[w]
		var failed func() error
		if fs, ok := sink.(failableSink); ok {
			failed = fs.sinkErr
		}
		return func(ws *scanWorker, mo morsel, v morselVerdict) (int, time.Duration) {
			sources, joinTables := segSources[mo.seg], segJoins[mo.seg]
			// The first join of a whole morsel reads the fact keys in order
			// and writes the selection vector itself: no selection pass, and
			// its time counts as Process.
			probeRange := len(joinTables) > 0 && plan.whole(v)
			switch {
			case probeRange:
				ws.sel = ws.sel[:mo.Len()] // no morsel exceeds the leased DefaultMorselSize
			case plan.whole(v):
				ws.sel = expr.FillRange(ws.sel[:0], mo.Start, mo.End)
			default:
				ws.sel = plan.segs[mo.seg].filter.SelectInto(mo.Start, mo.End, ws.sel[:0])
			}
			t1 := time.Now()
			sel, dimRows, gathered := ws.sel, ws.dimRows[:len(joinTables)], ws.gathered[:len(sources)]
			n, j0 := len(sel), 0
			if probeRange {
				n, j0 = joinTables[0].probeRange(mo.Start, mo.End, sel, dimRows), 1
			}
			for j := j0; j < len(joinTables); j++ { //laqy:allow ctxpoll per-morsel body; the morsel driver polls per morsel
				n = joinTables[j].probe(sel[:n], dimRows)
			}
			if n > 0 {
				for c := range sources { //laqy:allow ctxpoll per-morsel body; the morsel driver polls per morsel
					sources[c].gather(gathered[c][:n], ws.scratch, sel, dimRows, n)
				}
				sink.consume(gathered, n)
			}
			return n, time.Since(t1)
		}, failed
	})
}

// stratifiedSink feeds gathered rows into a per-worker stratified builder.
type stratifiedSink struct {
	sam *sample.Builder
}

// consume hands the gathered columns to the sample's batch admission: the
// per-stratum Algorithm L skip counters avoid both the per-row RNG draw
// and the old path's double tuple copy (every row used to be staged
// through a sink-owned tuple buffer before admission; now only admitted
// tuples are materialized, straight from the gathered vectors).
//
//laqy:hot batch sink on the scan path
func (s *stratifiedSink) consume(cols [][]int64, n int) {
	s.sam.ConsiderColumns(cols, n)
}

// BuildSegmentSample is the leaf every stratified build bottoms out in:
// one morsel-parallel pipeline over q's scan range [ScanFrom, ScanTo) with
// a stratified-sampling sink per worker, the partials of the workers that
// ran merged (Algorithm 3, mergeParts) with the merge time reported in
// Stats.Merge. The sample schema takes each expression's Name, so computed
// aggregates (e.g. lo_extendedprice*lo_discount) are sampled as
// materialized values. When one worker ran the result is its builder, not
// yet sealed: a segment merge reads it as it is.
//
// The in-process SegmentSource runs it over its segment's clipped range
// and a shard node runs it for a remote coordinator (DB.BuildSegment); the
// same query, seed and worker count give the same bytes in both places. It
// is also the single-reservoir reference the segmented coordinator must
// stay distribution-equivalent to (TestSegmentedBuildChiSquare).
func BuildSegmentSample(q *Query, exprs []ColumnExpr, qcsWidth, k int, seed uint64, workers int) (sample.Part, Stats, error) {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	schema := make(sample.Schema, len(exprs))
	for i, e := range exprs {
		schema[i] = e.Name
	}
	root := rng.NewLehmer64(seed)
	sinks := make([]rowSink, workers)
	partials := make([]sample.Part, workers)
	for w := 0; w < workers; w++ {
		b := sample.NewBuilder(schema, qcsWidth, k, root.Split(uint64(w)))
		partials[w], sinks[w] = b, &stratifiedSink{sam: b}
	}
	stats, err := runPipeline(q, exprs, workers, sinks)
	if err != nil {
		return nil, stats, err
	}
	mergeStart := time.Now()
	// Only the partials of workers that ran, numbered 0 to Workers−1: a
	// worker that claims no morsel makes no body, and an empty builder
	// would cost the merge a write.
	merged, err := mergeParts(partials[:max(stats.Workers, 1)], root.Split(1<<32), workers)
	if err != nil {
		return nil, stats, err
	}
	stats.Merge = time.Since(mergeStart)
	return merged, stats, nil
}

// mergeNFn is the merge of the exchange and of the segment merge. It is a
// variable only as a test seam: the panic-isolation suite swaps in a
// panicking merge to prove mergeParts converts it to an error (the real
// merge's panics are all unreachable-invariant checks).
var mergeNFn = sample.MergeN

// mergeParts merges per-worker or per-segment parts (sample.MergeN), the
// exchange-collection step of the paper's §6.3: reservoirs carry their
// full state, so the parts merge independently of how they were built. A
// panic in the merge, on the caller or re-raised there from a helper's
// chunk, fails this query's merge with an error, not the process.
func mergeParts(parts []sample.Part, gen *rng.Lehmer64, workers int) (p sample.Part, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, panicError("sample merge", r)
		}
	}()
	return mergeNFn(parts, gen, workers)
}

// Agg is one output of an exact aggregation: an aggregate kind over a value
// expression, as the SQL names it.
type Agg struct {
	Expr ColumnExpr
	Kind approx.AggKind
}

// RunExact is the engine's one exact aggregation: q's qualifying rows
// grouped by groupCols, one output per agg. It picks its own body:
//
//   - the fused fold (fused.go) when there are no group columns, no joins
//     and only SUM/COUNT/AVG — aggregation folded into the scan, no hash
//     table, no gather, zone-map-full morsels folded without a selection
//     vector;
//   - otherwise the materializing group-by sink (groupby.go) — the
//     optimized exact baseline sharing stratified sampling's access pattern
//     (Figure 8); joins, grouping and MIN/MAX need it.
//
// Either way the result has one group per distinct key among the rows that
// qualify, so a selection of no rows has no groups.
func RunExact(q *Query, groupCols []string, aggs []Agg, workers int) (*GroupResult, Stats, error) {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if len(groupCols) > sample.MaxQCS {
		return nil, Stats{}, fmt.Errorf("engine: %d group columns (max %d)", len(groupCols), sample.MaxQCS)
	}
	if len(aggs) == 0 {
		return nil, Stats{}, fmt.Errorf("engine: no aggregates")
	}
	exprs := make([]ColumnExpr, len(aggs))
	kinds := make([]approx.AggKind, len(aggs))
	foldable := len(groupCols) == 0 && len(q.Joins) == 0
	for i, a := range aggs {
		exprs[i], kinds[i] = a.Expr, a.Kind
		foldable = foldable && (a.Kind == approx.Sum || a.Kind == approx.Count || a.Kind == approx.Avg)
	}
	var res *GroupResult
	var stats Stats
	var err error
	if foldable {
		res, stats, err = runFold(q, exprs, workers)
	} else {
		res, stats, err = runGroupBy(q, groupCols, exprs, workers)
	}
	if err != nil {
		return nil, stats, err
	}
	res.kinds = kinds
	return res, stats, nil
}

// runGroupBy is RunExact's materializing body: one group-by sink per
// worker behind the full select → probe → gather pipeline, merged into the
// result.
func runGroupBy(q *Query, groupCols []string, aggExprs []ColumnExpr, workers int) (*GroupResult, Stats, error) {
	needed := append(ExprsFromNames(groupCols), aggExprs...)
	sinks := make([]rowSink, workers)
	partials := make([]*groupBySink, workers)
	for w := 0; w < workers; w++ {
		partials[w] = newGroupBySink(len(groupCols), len(aggExprs), q.Budget)
		sinks[w] = partials[w]
	}
	stats, err := runPipeline(q, needed, workers, sinks)
	if err != nil {
		return nil, stats, err
	}
	mergeStart := time.Now()
	result := mergeGroupBySinks(partials)
	stats.Merge = time.Since(mergeStart)
	return result, stats, nil
}
