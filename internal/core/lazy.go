// Package core implements LAQy's lazy sampler — the paper's primary
// contribution (Algorithm 1 and Section 5).
//
// Given a logical sampler request (a star query, the predicate of
// interest, the columns to capture and the per-stratum capacity), the lazy
// sampler consults the sample store and takes one of three paths:
//
//   - full reuse ("offline"): a stored sample's predicate subsumes the
//     query's; the stored sample answers the query, tightened by the query
//     predicate when it is strictly narrower (§5.2.1), with per-stratum
//     support checks guarding the error bounds;
//   - partial reuse ("lazy"): a stored sample overlaps the query predicate
//     on exactly one column; only the missing range is Δ-sampled — with the
//     Δ-predicate pushed below the sampler, shrinking its input — and merged
//     with the stored sample (Algorithms 2 and 3), after which the store
//     entry is updated to cover the union (§5.2.2, §5.2.3);
//   - no reuse ("online"): no overlapping sample exists; a regular online
//     sample is built and stored for future reuse.
//
// In all paths the sample finally used is distributed as if it had been
// built online for the query's exact predicate, so approximation
// guarantees are preserved while the sampling work is proportional only to
// the workload's novelty.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"laqy/internal/algebra"
	"laqy/internal/approx"
	"laqy/internal/engine"
	"laqy/internal/expr"
	"laqy/internal/governor"
	"laqy/internal/obs"
	"laqy/internal/rng"
	"laqy/internal/sample"
	"laqy/internal/store"
)

// Mode identifies which path of Algorithm 1 served a request.
type Mode int

const (
	// ModeOnline built a full online sample (no reuse).
	ModeOnline Mode = iota
	// ModePartial built only a Δ-sample and merged (lazy sampling).
	ModePartial
	// ModeOffline fully reused a stored sample (no data scan at all).
	ModeOffline
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeOnline:
		return "online"
	case ModePartial:
		return "partial"
	case ModeOffline:
		return "offline"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Request describes a logical sampler (the striped circle of Figure 7).
type Request struct {
	// Query is the star query whose qualifying rows the sampler consumes.
	// Query.Filter holds the fact-side predicate; dimension predicates
	// live in the joins.
	Query *engine.Query
	// Predicate is the full predicate of interest for sample matching: the
	// fact-side range constraints plus dimension constraints as dictionary
	// codes. It is the sample-store matching key, so it must describe
	// every predicate that shapes the sampler's input.
	Predicate algebra.Predicate
	// Schema lists the columns to capture, QCS (stratification) columns
	// first. The predicate's range column should be captured (in QVS) to
	// allow future tightening.
	Schema sample.Schema
	// QCSWidth is the number of leading stratification columns.
	QCSWidth int
	// K is the per-stratum reservoir capacity.
	K int
	// Seed drives sampling randomness for reproducible experiments.
	Seed uint64
	// Workers is the engine parallelism (<= 0 for default).
	Workers int
	// MinSupport, when > 0, enforces the conservative per-stratum support
	// check of §5.2.3 on tightened samples: if any stratum of a tightened
	// sample falls below it, the request falls back to online sampling.
	MinSupport int
	// DisablePartial turns off Δ-sampling: partially overlapping samples
	// are treated as misses, reproducing the full-match-only reuse of
	// prior caching systems (Taster [28]) as an experimental baseline for
	// the paper's Issue #2.
	DisablePartial bool
	// Oversample is the paper's oversampling factor α ≥ 1 (§5.2.3):
	// reservoirs are created with capacity ⌈α·K⌉, trading space for a
	// higher chance of surviving the support check under future predicate
	// tightening. Values below 1 (including the zero value) mean no
	// oversampling. Figure 4 shows the extra capacity has a marginal
	// effect on build time.
	Oversample float64
	// Budget, when non-nil, charges estimated reservoir memory before any
	// build: online builds shrink K (halving, floor minReservoirK) to fit
	// — recorded as a shrink_reservoir degradation — and Δ-builds that do
	// not fit degrade to serving the stored sample as-is. The nil budget
	// grants everything.
	Budget *governor.QueryBudget
	// ServeStored is the bottom rung of the degradation ladder: answer
	// only from the store, never scanning. A partial match is served
	// as-is (Result.Stale, widened CI, extrapolated totals) instead of
	// Δ-sampled; a miss (or an unservable tightening) returns
	// governor.ErrNoStoredSample so the caller picks the next rung.
	ServeStored bool
}

// effectiveK returns the reservoir capacity after applying α.
func (r *Request) effectiveK() int {
	if r.Oversample <= 1 {
		return r.K
	}
	return int(float64(r.K)*r.Oversample + 0.999999)
}

// Result reports how a request was served.
type Result struct {
	// Sample holds the tuples answering the request and Keep, when not nil,
	// the tightening predicate they are read through (§5.2.1): the logical
	// sample — distributed like an online sample built under
	// Request.Predicate — is the tuples of Sample that Keep accepts, at the
	// weights sample.Reservoir.Select gives them (approx.Selection reads it
	// so). Sample may be the store's own copy: read-only.
	Sample *sample.Stratified
	Keep   *expr.TupleFilter
	// Mode is the Algorithm 1 path taken.
	Mode Mode
	// Missing is the Δ-range sampled (empty for full reuse and equal to
	// the full constraint for online sampling on the delta column).
	Missing algebra.Set
	// DeltaColumn is the column the Δ-range applies to ("" when not
	// applicable).
	DeltaColumn string
	// Stats is the engine breakdown of the Δ/online execution (zero for
	// full reuse — the paper's "dip below the memory bandwidth wall").
	Stats engine.Stats
	// MergeTime is the time spent merging the Δ-sample with the stored one
	// and tightening (Figure 11's merge share).
	MergeTime time.Duration
	// Total is the end-to-end wall time of the request.
	Total time.Duration
	// SupportFallback reports that a reuse opportunity was abandoned
	// because a tightened stratum lacked support (§5.2.3).
	SupportFallback bool
	// Stale reports a stored sample served without the Δ-scan that would
	// have completed it (the skip_delta rung, or a Δ-build that dropped
	// segments); Scale discloses the range it misses.
	Stale bool
	// Scale is the answer's partial-coverage factor, written only by
	// underCover: at most 1 (the zero value included) means the sample
	// covers the request; above 1 it is the inverse of the covered share,
	// by which extensive estimates (SUM, COUNT) are extrapolated and every
	// standard error is widened.
	Scale float64
	// Degradations lists the governance steps taken while serving this
	// request (shrunk reservoirs, skipped Δ-builds).
	Degradations []governor.Degradation
}

// underCover records that r's sample covers only part of the request: deg
// labels the answer and scale becomes r.Scale. It is the one writer of
// Scale: serveStored passes 1/coverage and dropDegradation the inverse of
// the share of rows a build scanned.
func (r *Result) underCover(scale float64, deg governor.Degradation) {
	r.Scale = scale
	r.Degradations = append(r.Degradations, deg)
}

// LazySampler binds a sample store to an execution engine.
type LazySampler struct {
	store *store.Store

	// genMu serializes gen: concurrent merges — partial reuses on
	// different entries, maintenance beside them — each draw their RNG
	// substream from the shared generator through nextMergeGen.
	genMu sync.Mutex
	gen   *rng.Lehmer64

	// met holds cached metric instruments; nil instruments (the unwired
	// default) are no-ops.
	met samplerMetrics
}

// samplerMetrics caches the sampler's obs instruments so Algorithm 1's
// decision points never touch the registry map.
type samplerMetrics struct {
	online, partial, offline *obs.Counter
	supportFallback          *obs.Counter
	deltaBuilds, merges      *obs.Counter
	mergeSeconds             *obs.Histogram
}

// New creates a lazy sampler over the given store. seed drives merge
// randomness (per-request sampling randomness comes from Request.Seed).
func New(st *store.Store, seed uint64) *LazySampler {
	return &LazySampler{store: st, gen: rng.NewLehmer64(seed)}
}

// SetObs wires the sampler's (and its store's) telemetry into a metrics
// registry. Call before concurrent use (laqy.Open does). A nil registry
// leaves the sampler unobserved.
func (l *LazySampler) SetObs(reg *obs.Registry) {
	l.met = samplerMetrics{
		online:          reg.Counter(obs.MSamplerOnline),
		partial:         reg.Counter(obs.MSamplerPartial),
		offline:         reg.Counter(obs.MSamplerOffline),
		supportFallback: reg.Counter(obs.MSamplerSupportFallback),
		deltaBuilds:     reg.Counter(obs.MDeltaBuilds),
		merges:          reg.Counter(obs.MSampleMerges),
		mergeSeconds:    reg.Histogram(obs.MMergeSeconds),
	}
	l.store.SetObs(reg)
}

// Store returns the underlying sample store.
func (l *LazySampler) Store() *store.Store { return l.store }

// nextMergeGen draws the RNG substream for one Δ-merge, whether a query's
// partial reuse or an append's maintenance pass triggered it.
func (l *LazySampler) nextMergeGen() *rng.Lehmer64 {
	l.genMu.Lock()
	defer l.genMu.Unlock()
	return l.gen.Split(l.gen.Next())
}

// InputSignature canonically identifies a logical sampler input: the fact
// table plus the join structure (dimension tables and key pairs). Filters
// are deliberately excluded — they belong to the predicate, where the
// relaxed matching rules apply — so two queries differing only in
// predicates share the signature and can reuse each other's samples.
func InputSignature(q *engine.Query) string {
	var b strings.Builder
	b.WriteString(q.Fact.Name)
	for _, j := range q.Joins {
		fmt.Fprintf(&b, "⋈%s(%s=%s)", j.Dim.Name, j.FactKey, j.DimKey)
	}
	return b.String()
}

// Sample serves a logical sampler request per Algorithm 1, recording the
// path taken (online / partial / offline, plus support fallbacks) in the
// wired metrics registry.
func (l *LazySampler) Sample(req Request) (*Result, error) {
	start := obs.Clock()
	res, err := l.sample(req)
	if err == nil && res != nil {
		res.Total = obs.Since(start)
		switch res.Mode {
		case ModeOnline:
			l.met.online.Inc()
		case ModePartial:
			l.met.partial.Inc()
		case ModeOffline:
			l.met.offline.Inc()
		}
		if res.SupportFallback {
			l.met.supportFallback.Inc()
		}
	}
	return res, err
}

func (l *LazySampler) sample(req Request) (*Result, error) {
	if err := validate(&req); err != nil {
		return nil, err
	}
	// Prompt cancellation: observe the context before the store lookup,
	// not only at the engine's morsel boundaries.
	if err := ctxErr(req.Query.Ctx); err != nil {
		return nil, err
	}
	input := InputSignature(req.Query)

	lsp := obs.SpanFrom(req.Query.Ctx).Start("store lookup")
	match := l.store.Lookup(input, req.Schema, req.QCSWidth, req.effectiveK(), req.Predicate)
	if match == nil {
		lsp.SetAttr("reuse", "miss")
	} else {
		lsp.SetAttr("reuse", match.Reuse.String())
		lsp.SetAttr("matched", match.Meta.Predicate.String())
		if match.Reuse == algebra.ReusePartial {
			lsp.SetAttr("delta", match.Delta.Column+"∈"+match.Delta.Missing.String())
		}
	}
	lsp.End()
	var res *Result
	var err error
	switch {
	case match == nil:
		if req.ServeStored {
			// Bottom rung: nothing stored, nothing to serve.
			return nil, governor.ErrNoStoredSample
		}
		// No overlapping sample: pure online sampling (S_lazy ← S).
		return l.online(req, input)
	case match.Reuse == algebra.ReuseFull:
		res, err = l.offline(req, match)
	case req.ServeStored:
		return l.serveStored(req, match, governor.Degradation{
			Step:   governor.DegradeSkipDelta,
			Reason: "deadline pressure",
		})
	case req.DisablePartial:
		// Full-match-only baseline: a partial overlap is a miss.
		return l.online(req, input)
	default: // partial reuse: Δ-sample + merge
		res, err = l.partial(req, match)
	}
	if err != nil || !res.SupportFallback {
		return res, err
	}
	if req.ServeStored {
		// The fallback would scan; in reuse-only mode an unsupported
		// tightening is unservable.
		return nil, governor.ErrNoStoredSample
	}
	// Conservative support fallback: full online sampling.
	res, err = l.online(req, input)
	if err != nil {
		return nil, err
	}
	res.SupportFallback = true
	return res, nil
}

// ctxErr reports the context's error; a nil context never cancels.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

func validate(req *Request) error {
	if req.Query == nil {
		return fmt.Errorf("core: nil query")
	}
	if req.QCSWidth < 0 || req.QCSWidth > len(req.Schema) || req.QCSWidth > sample.MaxQCS {
		return fmt.Errorf("core: QCS width %d with %d captured columns", req.QCSWidth, len(req.Schema))
	}
	if req.K <= 0 {
		return fmt.Errorf("core: reservoir capacity %d", req.K)
	}
	return nil
}

// minReservoirK floors the memory-degradation halving: below this the
// sample is statistically useless and the query fails with the typed
// budget error instead.
const minReservoirK = 16

// sampleMemEstimate is the up-front reservation for a stratified reservoir
// build: k tuples × width int64 columns × an estimated stratum count, for
// each worker partial plus the merged result. Deliberately coarse — the
// budget is soft and the estimate errs high so denials land before the
// allocation, not after.
func sampleMemEstimate(k, width, workers int) int64 {
	if workers <= 0 {
		workers = engine.DefaultWorkers()
	}
	const estStrata = 8
	return int64(k) * int64(width) * 8 * estStrata * int64(workers+1)
}

// shrinkToBudget reserves build memory for a k-capacity reservoir,
// halving k until the reservation fits (degradation: shrink_reservoir) or
// the floor is hit (the typed budget error propagates and fails only this
// query).
func shrinkToBudget(b *governor.QueryBudget, k, width, workers int) (int, *governor.Degradation, error) {
	if b == nil {
		return k, nil, nil
	}
	orig := k
	for {
		err := b.Reserve(sampleMemEstimate(k, width, workers))
		if err == nil {
			if k == orig {
				return k, nil, nil
			}
			return k, &governor.Degradation{
				Step:   governor.DegradeShrinkReservoir,
				Reason: "memory budget",
				Detail: fmt.Sprintf("k %d → %d", orig, k),
			}, nil
		}
		if !errors.Is(err, governor.ErrMemoryBudget) || k/2 < minReservoirK {
			return 0, nil, err
		}
		k /= 2
	}
}

// online builds a full online sample for the request and stores it.
func (l *LazySampler) online(req Request, input string) (*Result, error) {
	k, shrink, err := shrinkToBudget(req.Budget, req.effectiveK(), len(req.Schema), req.Workers)
	if err != nil {
		return nil, err
	}
	res, dropped, err := buildSample(req.Query, req.Schema, req.QCSWidth, k, req.Seed, req.Workers, "online sample")
	if err != nil {
		return nil, err
	}
	// A sample that dropped segments still answers this query (labeled and
	// scaled by buildSample) but is not stored: its actual coverage is
	// narrower than its predicate claims, which would poison future reuse.
	if !dropped {
		_, err = l.store.Put(store.Meta{
			Input:     input,
			Predicate: req.Predicate,
			Schema:    req.Schema,
			QCSWidth:  req.QCSWidth,
			K:         k,
			Absorbed:  req.Query.Fact.NumRows(),
		}, res.Sample)
		if err != nil {
			return nil, err
		}
	}
	missing := algebra.Set{}
	col := ""
	if cols := req.Predicate.Columns(); len(cols) > 0 {
		// Report the first range constraint as the "missing" range for
		// selectivity accounting: online sampling processes it all.
		col = cols[0]
		missing, _ = req.Predicate.Constraint(col)
	}
	res.Mode, res.Missing, res.DeltaColumn = ModeOnline, missing, col
	if shrink != nil {
		res.Degradations = slices.Insert(res.Degradations, 0, *shrink)
	}
	return res, nil
}

// offline serves a request from a fully subsuming stored sample, tightening
// when the query predicate is strictly narrower.
func (l *LazySampler) offline(req Request, match *store.Match) (*Result, error) {
	mergeStart := obs.Clock()
	tsp := obs.SpanFrom(req.Query.Ctx).Start("tighten")
	defer tsp.End()
	res, err := l.tighten(req, match.Meta.Schema, match.Meta.Predicate, match.Sample)
	if err != nil {
		return nil, err
	}
	if res == nil {
		return &Result{Mode: ModeOffline, SupportFallback: true}, nil
	}
	res.Mode, res.MergeTime = ModeOffline, obs.Since(mergeStart)
	return res, nil
}

// tighten narrows from — a sample covering samplePred, capturing schema — to
// the request predicate (§5.2.1): the query's conjuncts that stored tuples may
// violate become the Keep predicate from is read through, then the support
// policy (none when req.MinSupport is 0) accepts the thinned strata or has
// the failing ones repaired. It returns a Result holding the view to answer
// from and the repair's execution stats; nil when from lacks a column to
// tighten on or support failed beyond repair.
func (l *LazySampler) tighten(req Request, schema sample.Schema, samplePred algebra.Predicate,
	from *sample.Stratified) (*Result, error) {

	pred := tighteningPredicate(samplePred, req.Predicate)
	if pred.IsTrue() {
		return &Result{Sample: from}, nil
	}
	keep, err := expr.CompileTuples(pred, schema)
	if err != nil {
		return nil, nil
	}
	if req.MinSupport > 0 {
		if fails := approx.SupportFailures(from, keep, req.MinSupport); len(fails) > 0 {
			return l.repairSupport(req, schema, from, keep, fails)
		}
	}
	return &Result{Sample: from, Keep: keep}, nil
}

// partial is the lazy path: Δ-sample only the missing range, merge with
// the stored sample, update the store to cover the union, and answer the
// query from the merged sample (tightened if the stored sample extends
// beyond the query range). Like offline, it reports a tightening it cannot
// support as Result.SupportFallback and leaves the fallback to sample.
func (l *LazySampler) partial(req Request, match *store.Match) (*Result, error) {
	meta, delta := match.Meta, match.Delta

	// Prompt cancellation before committing to the Δ-scan.
	if err := ctxErr(req.Query.Ctx); err != nil {
		return nil, err
	}
	// Charge the Δ-build's reservoir memory. K cannot shrink here — the
	// Δ-sample must merge with the stored sample at its capacity — so a
	// denial degrades one rung instead: serve the stored sample as-is.
	if err := req.Budget.Reserve(sampleMemEstimate(meta.K, len(meta.Schema), req.Workers)); err != nil {
		if errors.Is(err, governor.ErrMemoryBudget) {
			return l.serveStored(req, match, governor.Degradation{
				Step:   governor.DegradeSkipDelta,
				Reason: "memory budget",
			})
		}
		return nil, err
	}

	// Extend the entry under its own predicate with the delta column
	// restricted to the missing range, to cover the union of predicates.
	// The merged sample then covers exactly what the widened entry claims;
	// where the request is narrower on another column, tighten reads it
	// through that constraint.
	storedSet, _ := meta.Predicate.Constraint(delta.Column)
	newPred := replaceConstraint(meta.Predicate, delta.Column, storedSet.Union(delta.Missing))
	ext, dropped, err := l.extend(req.Query, match, replaceConstraint(meta.Predicate, delta.Column, delta.Missing),
		newPred, req.Seed, req.Workers, obs.Attr{Key: "missing", Value: delta.Column + "∈" + delta.Missing.String()})
	if err != nil {
		return nil, err
	}
	l.met.deltaBuilds.Inc()
	if dropped {
		// Serve the stored sample as-is under its coverage scale instead,
		// labeled with the Δ-build's drops.
		deg := ext.Degradations[0]
		deg.Detail = "Δ-build: " + deg.Detail
		return l.serveStored(req, match, deg)
	}

	// The logical sample for the query: tighten when the merged sample is
	// wider than the request. The merge time covers the tightening.
	tightenStart := obs.Clock()
	res, err := l.tighten(req, meta.Schema, newPred, ext.Sample)
	mergeTime := ext.MergeTime + obs.Since(tightenStart)
	if err != nil {
		return nil, err
	}
	l.met.merges.Inc()
	l.met.mergeSeconds.Observe(mergeTime)

	if res == nil {
		return &Result{Mode: ModePartial, SupportFallback: true}, nil
	}
	ext.Stats.Add(res.Stats)
	res.Mode, res.Missing, res.DeltaColumn = ModePartial, delta.Missing, delta.Column
	res.Stats, res.MergeTime = ext.Stats, mergeTime
	return res, nil
}

// serveStored is the bottom rung of the degradation ladder: answer a
// partially-matching request from the stored sample alone — no Δ-scan, no
// support repair. The sample is tightened to the query predicate where the
// stored coverage extends beyond it; the uncovered remainder (the Δ-range
// a normal partial serve would have sampled) is compensated statistically
// instead of physically: extensive estimates (SUM, COUNT) are extrapolated
// by 1/coverage and standard errors inflated by the same factor, under a
// uniform-density assumption over the predicate's value domain. The answer
// is always labeled (Result.Stale + deg, the rung that skipped the Δ) — a
// degraded answer may be wrong-er, but never silently so.
func (l *LazySampler) serveStored(req Request, match *store.Match, deg governor.Degradation) (*Result, error) {
	meta, delta := match.Meta, match.Delta
	sp := obs.SpanFrom(req.Query.Ctx).Start("serve stored")
	sp.SetAttr("missing", delta.Column+"∈"+delta.Missing.String())
	defer sp.End()

	req.MinSupport = 0 // no support repair: a repair would scan
	res, err := l.tighten(req, meta.Schema, meta.Predicate, match.Sample)
	if err != nil {
		return nil, err
	}
	cov := coverageEstimate(req.Predicate, delta.Column, delta.Missing)
	if res == nil || cov <= 0 {
		// The sample lacks a column the query constrains, or covers none
		// of its range: unservable.
		return nil, governor.ErrNoStoredSample
	}
	if deg.Detail == "" {
		deg.Detail = fmt.Sprintf("coverage %.0f%%", cov*100)
	}
	sp.SetAttr("degraded", deg.String())
	out := &Result{
		Sample:      res.Sample,
		Keep:        res.Keep,
		Mode:        ModeOffline,
		Missing:     delta.Missing,
		DeltaColumn: delta.Column,
		Stale:       true,
	}
	out.underCover(1/cov, deg) // coverage is in (0,1]
	return out, nil
}

// coverageEstimate estimates the fraction of the query constraint on col
// that remains covered after removing the missing Δ-range — a value-domain
// ratio (uniform-density assumption). Unknowable domains (unconstrained or
// saturating counts) report full coverage: no extrapolation rather than a
// garbage factor.
func coverageEstimate(pred algebra.Predicate, col string, missing algebra.Set) float64 {
	qs, ok := pred.Constraint(col)
	if !ok {
		return 1
	}
	total := qs.Count()
	miss := missing.Intersect(qs).Count()
	if total <= 0 || total == math.MaxInt64 || miss <= 0 {
		return 1
	}
	if miss >= total {
		return 0
	}
	return 1 - float64(miss)/float64(total)
}

// tighteningPredicate returns the conjuncts of query that stored rows may
// violate: for every column where the sample's coverage is not contained in
// the query's constraint, the query constraint must be re-applied to the
// sample's tuples. An all-TRUE result means the sample can be used as-is.
func tighteningPredicate(samplePred, queryPred algebra.Predicate) algebra.Predicate {
	out := algebra.NewPredicate()
	for _, c := range queryPred.Columns() {
		qs, _ := queryPred.Constraint(c)
		ss, ok := samplePred.Constraint(c)
		if !ok {
			ss = algebra.SetOf(algebra.Full())
		}
		if !qs.Covers(ss) {
			out = out.With(c, qs)
		}
	}
	return out
}

// replaceConstraint returns pred with the constraint on col replaced by
// set (not intersected — used to expand coverage after a Δ-merge).
func replaceConstraint(pred algebra.Predicate, col string, set algebra.Set) algebra.Predicate {
	out := algebra.NewPredicate()
	for _, c := range pred.Columns() {
		if c == col {
			continue
		}
		s, _ := pred.Constraint(c)
		out = out.With(c, s)
	}
	return out.With(col, set)
}
