package laqy

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"laqy/internal/approx"
	"laqy/internal/core"
	"laqy/internal/engine"
	"laqy/internal/governor"
	"laqy/internal/obs"
	"laqy/internal/sql"
	"laqy/internal/storage"
)

// GroupValue is one grouping-column value of a result row, decoded to a
// string for dictionary-encoded columns.
type GroupValue struct {
	Int      int64
	Str      string
	IsString bool
}

// String renders the value.
func (g GroupValue) String() string {
	if g.IsString {
		return g.Str
	}
	return strconv.FormatInt(g.Int, 10)
}

// AggValue is one aggregate output with its uncertainty. Exact results have
// Exact == true and zero StdErr.
type AggValue struct {
	// Value is the (estimated) aggregate.
	Value float64
	// StdErr is the estimated standard error (0 for exact execution).
	StdErr float64
	// Support is the number of sampled tuples behind the estimate (0 for
	// exact execution).
	Support int
	// Exact reports whether the value comes from exact execution.
	Exact bool
}

// ConfidenceInterval returns the (lo, hi) interval at the given confidence
// level (e.g. 0.95); exact values collapse to a point. A confidence level
// outside (0,1) yields an error.
func (a AggValue) ConfidenceInterval(confidence float64) (lo, hi float64, err error) {
	return approx.Estimate{Value: a.Value, StdErr: a.StdErr}.ConfidenceInterval(confidence)
}

// Row is one result row: the grouping values followed by the aggregates in
// select-list order.
type Row struct {
	Groups []GroupValue
	Aggs   []AggValue
}

// ExecStats is the per-phase execution breakdown of a query.
type ExecStats struct {
	// Scan is time spent filtering the fact table.
	Scan time.Duration
	// Process is time past the scan: joins, gathers, aggregation or
	// reservoir admission.
	Process time.Duration
	// Merge is time merging partial states and (for lazy execution)
	// Δ-samples with stored ones.
	Merge time.Duration
	// Total is end-to-end wall time.
	Total time.Duration
	// RowsScanned and RowsSelected count fact rows considered/qualified.
	RowsScanned, RowsSelected int64
	// Segments and SegmentsBuilt count the storage segments a segmented
	// sample build planned and completed; they differ when the governor
	// dropped trailing segments under pressure (see docs/SHARDING.md).
	// Both are zero for non-segmented executions.
	Segments, SegmentsBuilt int
	// SegmentParallelism is the concurrent segment-build fan-out used.
	SegmentParallelism int
	// RowsDropped counts fact rows in dropped segments (never scanned;
	// extensive aggregates were extrapolated over them).
	RowsDropped int64
}

// Result is a query's answer.
type Result struct {
	// GroupColumns and AggColumns label Row.Groups and Row.Aggs.
	GroupColumns []string
	AggColumns   []string
	// Rows are ordered by group key.
	Rows []Row
	// Approximate reports sampling-based execution.
	Approximate bool
	// Mode is the execution path taken: ModeExact, or for APPROX queries
	// ModeOnline (full sample built), ModePartial (Δ-sample + merge — the
	// lazy path), ModeOffline (full sample reuse, no data scan), or
	// ModeExactFallback (error bound unmeetable by sampling).
	Mode Mode
	// Stats is the execution breakdown.
	Stats ExecStats
	// Trace is the annotated phase tree of this execution; non-nil when
	// tracing is enabled (SetTracing) or the statement was EXPLAIN
	// ANALYZE.
	Trace *QueryTrace
	// Explain holds rendered EXPLAIN output: the plan description for
	// EXPLAIN, or the annotated trace for EXPLAIN ANALYZE ("" otherwise).
	Explain string
	// Stale reports a degraded answer served from a stored sample that only
	// partially covers the query's predicate: no data was scanned, extensive
	// aggregates were extrapolated, and confidence intervals widened. Always
	// accompanied by a DegradeSkipDelta entry in Degradations.
	Stale bool
	// Degradations lists the governance steps taken to produce this answer
	// under deadline or memory pressure (empty for undegraded queries). A
	// degraded answer is always labeled; see docs/GOVERNANCE.md.
	Degradations []Degradation
}

// Query parses, plans, and executes a SQL statement. Aggregation queries
// are supported; the APPROX clause selects sampling-based execution with
// LAQy's lazy sample reuse. Options tune this execution only (timeout,
// segment parallelism, error contract); see QueryOptions.
func (db *DB) Query(text string, opts ...QueryOption) (*Result, error) {
	return db.QueryContext(context.Background(), text, opts...)
}

// QueryContext is Query with cancellation: scans abort at the next morsel
// boundary once ctx is done, returning the context's error.
func (db *DB) QueryContext(ctx context.Context, text string, opts ...QueryOption) (*Result, error) {
	plan, parseStart, parseEnd, planEnd, err := db.parsePlan(text)
	if err != nil {
		return nil, err
	}
	if plan.Explain {
		return &Result{Explain: plan.Describe()}, nil
	}
	return db.execute(ctx, plan, applyOptions(opts), parseStart, parseEnd, planEnd)
}

// parsePlan parses and plans a statement, counting both phases; execute
// records the returned phase boundaries on the trace.
func (db *DB) parsePlan(text string) (plan *sql.Plan, parseStart, parseEnd, planEnd time.Time, err error) {
	parseStart = obs.Clock()
	stmt, err := sql.Parse(text)
	db.met.parse.Inc()
	if err != nil {
		db.met.parseErrors.Inc()
		return nil, parseStart, parseEnd, planEnd, err
	}
	parseEnd = obs.Clock()
	plan, err = sql.PlanStatement(stmt, db.catalog)
	db.met.plan.Inc()
	if err != nil {
		db.met.planErrors.Inc()
		return nil, parseStart, parseEnd, planEnd, err
	}
	return plan, parseStart, parseEnd, obs.Clock(), nil
}

// execute runs a planned statement with the observability and governance
// plumbing: the metrics registry (and, when tracing, the root span) ride
// the context through core → engine → store; the parse/plan phases measured
// by parsePlan are recorded retroactively on the trace; and the query
// passes the resource governor — default deadline, admission control,
// memory budget, and (under deadline pressure) the degradation ladder.
func (db *DB) execute(ctx context.Context, plan *sql.Plan, opt QueryOptions, parseStart, parseEnd, planEnd time.Time) (*Result, error) {
	start := obs.Clock()
	db.met.queries.Inc()

	// Per-query knobs: the option surface overrides the Config-wide
	// defaults; clauses written in the SQL text win over options.
	if opt.ErrorBound > 0 && plan.ErrorBound == 0 {
		plan.ErrorBound = opt.ErrorBound
		if opt.Confidence > 0 && plan.Confidence == 0 {
			plan.Confidence = opt.Confidence
		}
	}

	// Deadline: WithTimeout supersedes the configured default; queries
	// that arrive with neither inherit Config.DefaultQueryTimeout, so the
	// degradation ladder has a target to honor. An earlier deadline
	// already on the context wins either way (nested WithTimeout).
	if timeout := opt.Timeout; timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	} else if db.cfg.DefaultQueryTimeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, db.cfg.DefaultQueryTimeout)
			defer cancel()
		}
	}

	var tr *obs.Trace
	if db.traceOn.Load() || plan.ExplainAnalyze {
		tr = obs.NewTrace("query")
		tr.Root().Record("parse", parseStart, parseEnd)
		tr.Root().Record("plan", parseEnd, planEnd)
		// A serving layer's request-scoped trace ID (laqy.WithRequestID)
		// lands on the root span so wire responses, log lines, and EXPLAIN
		// ANALYZE output correlate.
		if id := obs.RequestIDFrom(ctx); id != "" {
			tr.Root().SetAttr("request_id", id)
		}
		db.met.traces.Inc()
	}

	// Admission: hold a weighted slot for the query's lifetime. Overload is
	// reported as a typed *OverloadedError before any work is done, so a
	// saturated server sheds load at the door instead of thrashing.
	weight := governor.WeightExact
	if plan.Approx {
		weight = governor.WeightApprox
	}
	admStart := obs.Clock()
	lease, err := db.gov.Acquire(ctx, weight)
	if err != nil {
		db.met.queryErrors.Inc()
		return nil, err
	}
	defer lease.Release()
	if tr != nil {
		tr.Root().Record("admission", admStart, obs.Clock())
	}

	ctx = obs.WithRegistry(ctx, db.reg)
	if tr != nil {
		ctx = obs.WithSpan(ctx, tr.Root())
	}
	plan.Query.Ctx = ctx

	// Memory budget: transient query state (reservoir builds, group-by hash
	// tables) is charged against it; ReleaseAll on the way out keeps the
	// global pool clean whatever path the query took.
	budget := db.gov.NewQueryBudget()
	defer budget.ReleaseAll()
	plan.Query.Budget = budget
	// Distributed seam: route segment builds through the installed shard
	// planner, when one is configured (cmd/laqyd -shards).
	plan.Query.Planner = db.segmentPlanner()

	// Walk the degradation ladder: a rung that has nothing stored to serve
	// hands over to the next one; any other outcome ends the walk.
	var res *Result
	degrade, reuseOnly := db.deadlinePressure(ctx, plan)
	for _, r := range ladder(plan.Approx, degrade, reuseOnly) {
		if r == rungExact {
			res, err = db.runExact(plan)
		} else {
			res, err = db.runApprox(plan, r == rungStored)
			if err == nil && !plan.Approx {
				label := Degradation{Step: DegradeExactToApprox, Reason: "deadline pressure"}
				res.Degradations = append([]Degradation{label}, res.Degradations...)
			}
		}
		if !errors.Is(err, governor.ErrNoStoredSample) {
			break
		}
	}
	if err != nil {
		db.met.queryErrors.Inc()
		return nil, err
	}
	for _, d := range res.Degradations {
		db.gov.RecordDegradation(d.Step)
	}
	db.met.querySeconds.Observe(obs.Since(start))
	db.met.mode(res.Mode).Inc()
	if tr != nil {
		root := tr.Root()
		root.SetAttr("mode", res.Mode.String())
		root.SetAttrInt("rows", int64(len(res.Rows)))
		if len(res.Degradations) > 0 {
			root.SetAttr("degraded", degradationsString(res.Degradations))
		}
		root.End()
		res.Trace = traceFromObs(tr)
		if plan.ExplainAnalyze {
			db.met.explainAnalyze.Inc()
			res.Explain = tr.Render()
		}
	}
	return res, nil
}

// deadlinePressure consults the governor's scan cost model against the
// context deadline and reports which degradation rungs apply: degrade
// (an exact scan would miss the deadline → answer from a sample) and
// reuseOnly (even a sample build would miss it → serve a stored sample
// as-is, skipping the Δ scan). A cold cost model or a missing deadline
// report no pressure, so first queries run undegraded.
func (db *DB) deadlinePressure(ctx context.Context, plan *sql.Plan) (degrade, reuseOnly bool) {
	if plan.Query.Fact == nil {
		return false, false
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		return false, false
	}
	est := db.gov.EstimateScan(int64(plan.Query.Fact.NumRows()))
	if est == 0 {
		return false, false
	}
	remaining := deadline.Sub(obs.Clock())
	// A sample build still scans (online or Δ). When even a quarter of the
	// full scan would blow the deadline (or it has already passed), only a
	// zero-scan stored serve can answer in time.
	return est > remaining, remaining <= 0 || est/4 > remaining
}

// rung is one way to answer a statement; ladder orders them.
type rung int

const (
	rungExact  rung = iota // the exact scan
	rungSample             // the lazy sampler: reuse, Δ-build or build, as the store dictates
	rungStored             // the lazy sampler held to the store: no scan, partial cover served as-is
)

// ladder is the degradation ladder as a value: the rungs to try, in order,
// for an APPROX or exact statement under the pressure deadlinePressure
// reports (reuseOnly implies degrade). execute moves to the next rung only
// on governor.ErrNoStoredSample, so each list ends in a rung that needs
// nothing stored: an approximate query builds its sample anyway, an exact
// one runs exact — a late answer beats none when there is no stored one.
func ladder(approx, degrade, reuseOnly bool) []rung {
	switch {
	case approx && reuseOnly:
		return []rung{rungStored, rungSample}
	case approx:
		return []rung{rungSample}
	case reuseOnly:
		return []rung{rungStored, rungExact}
	case degrade:
		return []rung{rungSample, rungExact}
	default:
		return []rung{rungExact}
	}
}

// aggLabel renders the aggregate's result-column label (the AS alias when
// given).
func aggLabel(a sql.AggSpec) string {
	if a.Label != "" {
		return a.Label
	}
	if a.Column == "" {
		return "COUNT(*)"
	}
	return fmt.Sprintf("%v(%s)", a.Kind, a.Column)
}

// decodeGroups renders a group key using the plan's dictionaries.
func decodeGroups(plan *sql.Plan, key engine.GroupKey) []GroupValue {
	out := make([]GroupValue, len(plan.GroupBy))
	for i, col := range plan.GroupBy {
		out[i] = decodeGroup(plan.Dicts[col], key[i])
	}
	return out
}

// decodeGroup renders one grouping value: a dictionary code (dict not nil)
// or a plain integer.
func decodeGroup(dict *storage.Dict, v int64) GroupValue {
	if dict != nil {
		return GroupValue{Str: dict.Value(v), IsString: true, Int: v}
	}
	return GroupValue{Int: v}
}

func (db *DB) runExact(plan *sql.Plan) (*Result, error) {
	start := obs.Clock()
	// Each aggregate reads its own value column; COUNT(*) rides on the
	// first captured value column.
	rideOn := plan.Schema[len(plan.GroupBy)]
	aggs := make([]engine.Agg, len(plan.Aggs))
	for i, a := range plan.Aggs {
		col := a.Column
		if col == "" {
			col = rideOn
		}
		aggs[i] = engine.Agg{Expr: engine.ParseExprName(col), Kind: a.Kind}
	}
	res, stats, err := engine.RunExact(plan.Query, plan.GroupBy, aggs, db.engineWorkers())
	if err != nil {
		return nil, err
	}
	db.gov.ObserveScan(stats.RowsScanned, stats.Scan)
	out := newResult(plan, false, ModeExact)
	for _, key := range res.Keys() {
		row := Row{Groups: decodeGroups(plan, key), Aggs: make([]AggValue, len(plan.Aggs))}
		for i := range plan.Aggs {
			v, _ := res.Value(key, i)
			row.Aggs[i] = AggValue{Value: v, Exact: true}
		}
		out.Rows = append(out.Rows, row)
	}
	out.Stats = toExecStats(stats, 0, obs.Since(start))
	finishRows(plan, out)
	return out, nil
}

// runApprox answers a query from the lazy sampler. serveStored is the
// degradation ladder's bottom rung: the store must answer as-is (no scan);
// a store miss surfaces governor.ErrNoStoredSample so the caller can pick
// the next rung (build anyway, or run exact).
func (db *DB) runApprox(plan *sql.Plan, serveStored bool) (*Result, error) {
	start := obs.Clock()
	k := plan.K
	if k == 0 {
		k = db.cfg.DefaultK
	}
	req := core.Request{
		Query:       plan.Query,
		Predicate:   plan.Predicate,
		Schema:      plan.Schema,
		QCSWidth:    plan.QCSWidth(),
		K:           k,
		Seed:        db.nextSeed(),
		Workers:     db.engineWorkers(),
		MinSupport:  db.cfg.MinSupport,
		Oversample:  db.cfg.Oversample,
		Budget:      plan.Query.Budget,
		ServeStored: serveStored,
	}
	res, err := db.lazy.Sample(req)
	if err != nil {
		return nil, err
	}
	db.gov.ObserveScan(res.Stats.RowsScanned, res.Stats.Scan)
	out := resultFromSample(plan, res, start, db.engineWorkers())

	// APPROX ERROR e [CONFIDENCE c]: when an estimate's realized bound
	// exceeds the target, retry with a reservoir capacity sized from the
	// observed variance (stderr scales with 1/√k, so the needed capacity is
	// computable); if the resized sample still misses — or the required
	// capacity is impractically large — fall back to exact execution rather
	// than return an answer that misses its contract. The loop runs under
	// the governor's bounded RetryPolicy (which honors cancellation before
	// each rescan); a deadline that expires mid-retry returns the
	// best-so-far answer labeled DegradeSkipRetry instead of nothing. In
	// serveStored mode the enforcement is skipped entirely: the answer is
	// already labeled degraded, and any retry would scan.
	conf := confidenceOf(plan)
	if plan.ErrorBound > 0 && !serveStored && !boundsMet(out, plan.ErrorBound, conf) {
		policy := governor.RetryPolicy{MaxAttempts: approxRetryAttempts}
		rerr := policy.Do(plan.Query.Ctx, func(int) (bool, error) {
			newK := requiredK(out, req.K, plan.ErrorBound, conf)
			if newK <= req.K || newK > maxAutoK {
				// No finite resize helps; stop and let the exact
				// fallback below decide.
				return true, nil
			}
			db.met.retries.Inc()
			req.K = newK
			req.Seed = db.nextSeed()
			res, err := db.lazy.Sample(req)
			if err != nil {
				return true, err
			}
			db.gov.ObserveScan(res.Stats.RowsScanned, res.Stats.Scan)
			out = resultFromSample(plan, res, start, db.engineWorkers())
			return boundsMet(out, plan.ErrorBound, conf), nil
		})
		if rerr != nil {
			if errors.Is(rerr, context.DeadlineExceeded) {
				// The deadline ran out mid-retry: the best-so-far answer,
				// labeled, beats no answer (the BlinkDB trade).
				out.Degradations = append(out.Degradations, Degradation{
					Step:   DegradeSkipRetry,
					Reason: "deadline",
				})
				return out, nil
			}
			return nil, rerr
		}
		if !boundsMet(out, plan.ErrorBound, conf) {
			db.met.exactFallbacks.Inc()
			exact, err := db.runExact(plan)
			if err != nil {
				return nil, err
			}
			exact.Mode = ModeExactFallback
			return exact, nil
		}
	}
	return out, nil
}

// approxRetryAttempts bounds the APPROX ERROR resize loop: the attempts
// after the first pass, each resizing the reservoir from the latest
// observed variance. Two attempts generalize the former single-retry
// policy — the second fires only when the first resize's own variance
// estimate asks for still more capacity under maxAutoK.
const approxRetryAttempts = 2

// resultFromSample materializes a sampler answer into a Result, for the first
// pass and the resized-K passes of runApprox alike: one row per stratum with
// tuples left under the answer's tightening predicate, each aggregate
// estimated from that one selection of the stratum's reservoir (COUNT(*)
// rides on the first captured value column), plus stats, staleness and
// degradations.
//
// The strata are estimated on up to workers goroutines (Stratified.Walk).
// A stratum's row depends on that stratum alone, and it is written at the
// stratum's position in key order, so the rows — once the strata the
// tightening emptied are removed, keeping order — do not depend on which
// goroutine estimated which stratum, or when. Each goroutine has its own
// selection scratch, allocated apart from the others'.
//
// A sample covering only part of the request (a stale serve, or a build
// that dropped segments) is adjusted here by its one partial-coverage
// factor, core.Result.Scale: extensive aggregates (SUM, COUNT) are
// extrapolated by it — their standard errors with them — and every
// standard error is widened by it once more, so the reported uncertainty
// discloses the unobserved range. A covering sample's factor is 1.
//
//laqy:hot per-stratum estimate loop of every approximate answer
func resultFromSample(plan *sql.Plan, res *core.Result, start time.Time, workers int) *Result {
	out := newResult(plan, true, modeFromCore(res.Mode))
	out.Stats = toExecStats(res.Stats, res.MergeTime, obs.Since(start))
	out.Stale = res.Stale
	out.Degradations = append(out.Degradations, res.Degradations...)
	scale := max(res.Scale, 1)
	// Resolved once, not per stratum: each aggregate's tuple column and each
	// grouping column's dictionary. Rows cut Groups and Aggs from two slabs.
	nGroups, nAggs := len(plan.GroupBy), len(plan.Aggs)
	cols := make([]int, nAggs)
	for i, a := range plan.Aggs {
		cols[i] = nGroups
		if a.Column != "" {
			cols[i] = plan.Schema.Index(a.Column)
		}
	}
	dicts := make([]*storage.Dict, nGroups)
	for i, col := range plan.GroupBy {
		dicts[i] = plan.Dicts[col]
	}
	strata := res.Sample.NumStrata()
	sp := obs.SpanFrom(plan.Query.Ctx).Start("estimate")
	rows := make([]Row, strata)
	groups := make([]GroupValue, strata*nGroups)
	aggs := make([]AggValue, strata*nAggs)
	res.Sample.Walk(workers, func() func(lo, hi int) {
		sel := new(approx.Selection)
		return func(lo, hi int) {
			for pos := lo; pos < hi; pos++ {
				key, r := res.Sample.At(pos)
				if !sel.Select(r, res.Keep) {
					continue // tightening left this stratum no tuple
				}
				g, a := pos*nGroups, pos*nAggs
				row := Row{Groups: groups[g : g+nGroups : g+nGroups], Aggs: aggs[a : a+nAggs : a+nAggs]}
				for i, dict := range dicts {
					row.Groups[i] = decodeGroup(dict, key[i])
				}
				for i, agg := range plan.Aggs {
					e := sel.Estimate(cols[i], agg.Kind)
					if agg.Kind == approx.Sum || agg.Kind == approx.Count {
						e.Value *= scale
						e.StdErr *= scale
					}
					e.StdErr *= scale
					row.Aggs[i] = AggValue{Value: e.Value, StdErr: e.StdErr, Support: e.Support}
				}
				rows[pos] = row
			}
		}
	})
	// A stratum the tightening emptied left its row zero; every kept row has
	// Aggs, since every plan has an aggregate.
	out.Rows = rows[:0]
	for _, row := range rows {
		if row.Aggs != nil {
			out.Rows = append(out.Rows, row)
		}
	}
	sp.SetAttrInt("strata", int64(strata))
	sp.SetAttrInt("workers", int64(workers))
	sp.End()
	finishRows(plan, out)
	return out
}

// maxAutoK caps error-driven reservoir growth; beyond it exact execution
// is cheaper than the sample it would take.
const maxAutoK = 1 << 17

// requiredK sizes the reservoir capacity needed to bring every estimate's
// relative error bound under target at the given confidence: stderr scales
// as 1/√k, so k' = k·(bound/target)². Returns 0 when no finite capacity
// helps (e.g. a zero-valued estimate).
func requiredK(res *Result, k int, target, confidence float64) int {
	worst := 1.0
	for _, row := range res.Rows {
		for _, a := range row.Aggs {
			if a.StdErr == 0 {
				continue
			}
			if a.Value == 0 {
				return 0
			}
			e := approx.Estimate{Value: a.Value, StdErr: a.StdErr}
			bound, err := e.RelativeErrorBound(confidence)
			if err != nil {
				// Invalid confidence: no resize can help; the caller
				// falls back to exact execution.
				return 0
			}
			if ratio := bound / target; ratio > worst {
				worst = ratio
			}
		}
	}
	if worst <= 1 {
		return k
	}
	// 1.2 safety margin over the CLT scaling estimate.
	need := float64(k) * worst * worst * 1.2
	if need > float64(maxAutoK)+1 {
		return maxAutoK + 1
	}
	return int(need) + 1
}

// finishRows applies the plan's HAVING, ORDER BY, and LIMIT to the result
// rows (rows arrive in group-key order from the executors).
func finishRows(plan *sql.Plan, res *Result) {
	if len(plan.Having) > 0 {
		kept := res.Rows[:0]
		for _, row := range res.Rows {
			if havingAccepts(plan.Having, row) {
				kept = append(kept, row)
			}
		}
		res.Rows = kept
	}
	if len(plan.OrderBy) > 0 {
		sort.SliceStable(res.Rows, func(i, j int) bool {
			a, b := res.Rows[i], res.Rows[j]
			for _, o := range plan.OrderBy {
				var cmp int
				if o.AggIdx >= 0 {
					cmp = compareFloat(a.Aggs[o.AggIdx].Value, b.Aggs[o.AggIdx].Value)
				} else {
					cmp = compareGroup(a.Groups[o.GroupIdx], b.Groups[o.GroupIdx])
				}
				if cmp == 0 {
					continue
				}
				if o.Desc {
					return cmp > 0
				}
				return cmp < 0
			}
			return false
		})
	}
	if plan.Limit > 0 && len(res.Rows) > plan.Limit {
		res.Rows = res.Rows[:plan.Limit]
	}
}

// havingAccepts evaluates the HAVING conjunction against one row.
func havingAccepts(conds []sql.PlanHaving, row Row) bool {
	for _, h := range conds {
		v := row.Aggs[h.AggIdx].Value
		lit := float64(h.Value)
		ok := false
		switch h.Cmp {
		case sql.OpEq:
			ok = v == lit
		case sql.OpLt:
			ok = v < lit
		case sql.OpLe:
			ok = v <= lit
		case sql.OpGt:
			ok = v > lit
		case sql.OpGe:
			ok = v >= lit
		}
		if !ok {
			return false
		}
	}
	return true
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func compareGroup(a, b GroupValue) int {
	if a.IsString {
		switch {
		case a.Str < b.Str:
			return -1
		case a.Str > b.Str:
			return 1
		default:
			return 0
		}
	}
	switch {
	case a.Int < b.Int:
		return -1
	case a.Int > b.Int:
		return 1
	default:
		return 0
	}
}

// confidenceOf resolves the plan's confidence level (default 0.95).
func confidenceOf(plan *sql.Plan) float64 {
	if plan.Confidence > 0 {
		return plan.Confidence
	}
	return 0.95
}

// boundsMet reports whether every estimate meets the relative error bound
// at the given confidence. Exact estimates (zero standard error) and order
// statistics (MIN/MAX, which carry no error model) pass.
func boundsMet(res *Result, bound, confidence float64) bool {
	for _, row := range res.Rows {
		for _, a := range row.Aggs {
			if a.StdErr == 0 {
				continue
			}
			e := approx.Estimate{Value: a.Value, StdErr: a.StdErr}
			b, err := e.RelativeErrorBound(confidence)
			if err != nil || b > bound {
				// An invalid confidence level cannot certify the bound;
				// report unmet so the caller falls back to exact.
				return false
			}
		}
	}
	return true
}

func newResult(plan *sql.Plan, approximate bool, mode Mode) *Result {
	out := &Result{
		GroupColumns: append([]string{}, plan.GroupBy...),
		Approximate:  approximate,
		Mode:         mode,
	}
	for _, a := range plan.Aggs {
		out.AggColumns = append(out.AggColumns, aggLabel(a))
	}
	return out
}

func toExecStats(s engine.Stats, extraMerge time.Duration, total time.Duration) ExecStats {
	return ExecStats{
		Scan:               s.Scan,
		Process:            s.Process,
		Merge:              s.Merge + extraMerge,
		Total:              total,
		RowsScanned:        s.RowsScanned,
		RowsSelected:       s.RowsSelected,
		Segments:           s.Segments,
		SegmentsBuilt:      s.SegmentsBuilt,
		SegmentParallelism: s.SegmentParallelism,
		RowsDropped:        s.RowsDropped,
	}
}

// interface guard: GroupValue prints nicely in fmt verbs.
var _ fmt.Stringer = GroupValue{}

// Explain parses and plans a statement and returns a human-readable plan
// description (scan, joins, and — for APPROX queries — the logical sampler
// placement and matching predicate) without executing anything.
func (db *DB) Explain(text string) (string, error) {
	plan, _, _, _, err := db.parsePlan(text)
	if err != nil {
		return "", err
	}
	return plan.Describe(), nil
}
