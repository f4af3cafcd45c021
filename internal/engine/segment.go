// Segment-parallel sample builds: the coordinator half of the sharding
// design (docs/SHARDING.md). A segmented fact table is built one segment
// at a time by the participants of one par.Claim, each running the normal
// morsel-parallel pipeline over its segment's row range and producing an
// independent per-segment stratified reservoir; the coordinator merges
// them N-way with the paper's Algorithm 2/3 algebra (proportional when
// segment weights match, scaled-proportional when they differ — the
// per-stratum Merge in internal/sample picks the case).
//
// The coordinator/segment seam is the SegmentSource interface: the local
// implementation wraps storage.Segment, and a follow-up can place an RPC
// client to a remote laqyd behind the same method set without touching
// the merge or degradation paths.
package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"laqy/internal/governor"
	"laqy/internal/obs"
	"laqy/internal/par"
	"laqy/internal/rng"
	"laqy/internal/sample"
	"laqy/internal/storage"
)

// SegmentSource is the coordinator's view of one shard: enough to plan,
// admission-charge, and run a per-segment sample build, and to account for
// what was lost if the segment is dropped under pressure. Sources are
// built in ID order and dropped from the highest ID down.
type SegmentSource interface {
	// ID orders the sources; degradation drops the trailing (highest-ID)
	// segments first.
	ID() int
	// Version is the content version of the underlying segment, recorded
	// as sample provenance by the caller.
	Version() uint64
	// Rows is the number of rows this source will scan (after high-water
	// clipping) — the weight lost if the segment is dropped.
	Rows() int
	// Morsels is the number of scan morsels behind this source; the
	// coordinator caps global parallelism at the total across sources.
	Morsels() int
	// MemEstimate is the transient memory one build at the given
	// parallelism will hold — what the coordinator charges against the
	// query budget before dispatching the segment.
	MemEstimate(workers int) int64
	// Build runs the per-segment sample build with the given intra-segment
	// parallelism and RNG seed, returning the partial sample as a merge
	// input: a builder or a sealed sample.
	Build(workers int, seed uint64) (sample.Part, Stats, error)
}

// ErrSegmentUnavailable marks a segment whose source could not produce a
// partial sample for reasons that are the segment's alone — a shard node
// down, retries and hedges exhausted, a corrupt frame. The coordinator
// treats a Build error wrapping it as a per-segment drop (the segment's
// Rows() weight joins RowsDropped and the answer degrades to a labeled
// extrapolation) instead of a whole-query failure. When every segment is
// unavailable there is nothing to extrapolate from, and the run fails
// with an error wrapping this sentinel.
var ErrSegmentUnavailable = errors.New("engine: segment unavailable")

// SegmentPlanner rewrites the locally-planned segment sources before
// dispatch. exprs/qcsWidth/k are the build parameters the sources were
// planned with, so a distributed planner can serialize an equivalent
// remote build spec; each local source also implements PlannedSegment for
// its scan geometry. Implementations must return sources covering the
// same segments (same IDs and Rows) or the coverage accounting breaks.
type SegmentPlanner interface {
	PlanSegments(q *Query, exprs []ColumnExpr, qcsWidth, k int, local []SegmentSource) []SegmentSource
}

// PlannedSegment is the planning view of a locally-planned source: the
// clipped scan range a remote build must mirror exactly for the
// reservoir to be byte-identical with the local build.
type PlannedSegment interface {
	SegmentSource
	// ScanRange returns the absolute fact-row range [from, to) this
	// source will scan.
	ScanRange() (from, to int)
}

// ShardedSource is implemented by sources that execute on a named remote
// shard; the coordinator uses it for span and degradation attribution.
type ShardedSource interface {
	// Shard names the node that served (or last failed) the build; ""
	// before any attempt.
	Shard() string
}

// SegmentDrop attributes one dropped segment: which segment, how much
// weight, which shard (for remote sources), and why. It feeds
// Result.Degradations detail and the EXPLAIN ANALYZE segment span.
type SegmentDrop struct {
	// ID is the dropped segment's ID.
	ID int
	// Rows is the scan weight the merged sample no longer represents.
	Rows int64
	// Shard names the remote node at fault ("" for local pressure drops).
	Shard string
	// Reason is a short cause ("pressure", or the unavailability error).
	Reason string
}

// localSegment is the in-process SegmentSource: a segment-scoped copy of
// the query run through the leaf build (BuildSegmentSample).
type localSegment struct {
	q        Query // value copy with ScanFrom/ScanTo bound to the segment
	exprs    []ColumnExpr
	qcsWidth int
	k        int
	seg      *storage.Segment
}

func (s *localSegment) ID() int         { return s.seg.ID() }
func (s *localSegment) Version() uint64 { return s.seg.Version() }
func (s *localSegment) Rows() int       { return s.q.ScanTo - s.q.ScanFrom }

func (s *localSegment) Morsels() int {
	return (s.Rows() + storage.DefaultMorselSize - 1) / storage.DefaultMorselSize
}

// MemEstimate mirrors the sampler's transient-memory model for one segment
// build: per-worker partial reservoirs plus the merged result, k tuples of
// width columns each (8 bytes a value), plus per-stratum bookkeeping.
func (s *localSegment) MemEstimate(workers int) int64 {
	perSample := int64(s.k) * int64(len(s.exprs)+1) * 8
	return perSample * int64(workers+1)
}

func (s *localSegment) Build(workers int, seed uint64) (sample.Part, Stats, error) {
	q := s.q
	return BuildSegmentSample(&q, s.exprs, s.qcsWidth, s.k, seed, workers)
}

// ScanRange implements PlannedSegment.
func (s *localSegment) ScanRange() (from, to int) { return s.q.ScanFrom, s.q.ScanTo }

// localSegmentSources plans the per-segment builds for q: one source per
// segment overlapping the scan range, each clipped to [from, to) — where
// from is q.ScanFrom, or the segment's own high-water mark when fromBySeg
// supplies one (Δ-maintenance passes the per-segment marks recorded in
// sample provenance). An unsegmented table is a table with one segment.
func localSegmentSources(q *Query, exprs []ColumnExpr, qcsWidth, k int, fromBySeg map[int]int) []SegmentSource {
	segs := q.Fact.Segments()
	from, to := q.scanBounds()
	out := make([]SegmentSource, 0, len(segs))
	for _, seg := range segs {
		lo, hi := seg.Start(), seg.End()
		if fb, ok := fromBySeg[seg.ID()]; ok && lo < fb {
			lo = fb
		}
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if lo >= hi {
			continue
		}
		ls := &localSegment{q: *q, exprs: exprs, qcsWidth: qcsWidth, k: k, seg: seg}
		ls.q.ScanFrom, ls.q.ScanTo = lo, hi
		out = append(out, ls)
	}
	return out
}

// planSegments produces the dispatch-ready segment sources: the local
// plan, rewritten by q.Planner when one is installed (the distributed
// path — internal/shard wraps assigned segments in RPC clients).
func planSegments(q *Query, exprs []ColumnExpr, qcsWidth, k int, fromBySeg map[int]int) []SegmentSource {
	local := localSegmentSources(q, exprs, qcsWidth, k, fromBySeg)
	if q.Planner == nil || len(local) == 0 {
		return local
	}
	return q.Planner.PlanSegments(q, exprs, qcsWidth, k, local)
}

// RunStratifiedExprs executes q and builds a stratified sample of the
// qualifying rows capturing exprs (the first qcsWidth are the QCS columns,
// k the per-stratum reservoir capacity). It is the one entry for sample
// builds — full, Δ and distributed: fromBySeg optionally gives per-segment
// resume marks (absolute row; segments absent from the map, or a nil map,
// scan in full), so an append touching only the open segment rescans only
// that segment's tail.
//
// The build is planned as one source per overlapping segment and
// dispatched by one rule: no sources (every segment already covered, or an
// empty range) is a well-formed empty sample; a single in-process source
// is built directly with the caller's seed — a table of one segment costs
// no coordinator; anything else — several segments, or any plan a Planner
// rewrote, since even a single remote segment needs the drop/degradation
// path — fans out through the coordinator and merges N-way. The result is
// sealed: a merge's as it is, a lone builder (one worker over one segment)
// written once.
func RunStratifiedExprs(q *Query, exprs []ColumnExpr, qcsWidth, k int, seed uint64, workers int, fromBySeg map[int]int) (*sample.Stratified, Stats, error) {
	sources := planSegments(q, exprs, qcsWidth, k, fromBySeg)
	var part sample.Part
	var stats Stats
	var err error
	switch {
	case len(sources) == 0:
		empty := *q
		empty.ScanFrom, empty.ScanTo = q.Fact.NumRows(), q.Fact.NumRows()
		part, stats, err = BuildSegmentSample(&empty, exprs, qcsWidth, k, seed, workers)
	case len(sources) == 1 && q.Planner == nil:
		part, stats, err = sources[0].Build(workers, seed)
	default:
		part, stats, err = runStratifiedSegments(q, sources, seed, workers)
	}
	if err != nil {
		return nil, stats, err
	}
	return sample.Seal(part, workers), stats, nil
}

// errSegmentsStopped is the internal signal a segment worker leaves when
// the coordinator decided to stop dispatching (deadline or memory
// pressure); it never escapes runStratifiedSegments.
var errSegmentsStopped = errors.New("engine: segment dispatch stopped")

// runStratifiedSegments is the N-way coordinator: fan segment builds
// across par.Claim's participants, charge admission per segment batch
// against the query's memory budget, drop trailing segments (instead of
// failing the whole query) when the deadline or budget runs out mid-plan,
// and merge the per-segment reservoirs with the Algorithm 2/3 algebra.
func runStratifiedSegments(q *Query, sources []SegmentSource, seed uint64, workers int) (sample.Part, Stats, error) {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	// The PR-5 cap, fixed for segmentation: cap the global worker budget
	// at the TOTAL morsel count across segments — capping per segment
	// would let one small segment starve the stats divisor for the rest.
	totalMorsels := 0
	for _, s := range sources {
		totalMorsels += s.Morsels()
	}
	if workers > totalMorsels {
		workers = totalMorsels
	}
	if workers < 1 {
		workers = 1
	}
	// Concurrent segment builds: one per segment, at most one per worker.
	segPar := min(DefaultWorkers(), len(sources), workers)
	perSeg := max(workers/segPar, 1)

	start := time.Now()
	partials := make([]sample.Part, len(sources))
	segErrs := make([]error, len(sources))
	segStats := make([]Stats, len(sources))
	// par.Claim hands index i to one participant, so partials[i],
	// segErrs[i] and segStats[i] are written without a lock.
	_, err := par.Claim(len(sources), segPar, func(int) func(i int) error {
		return func(i int) (err error) {
			partials[i], segStats[i], err = buildSegment(q, sources[i], seed, perSeg)
			if errors.Is(err, context.DeadlineExceeded) {
				// Deadline pressure degrades (drop the tail); explicit
				// cancellation aborts.
				err = errSegmentsStopped
			}
			segErrs[i] = err
			if errors.Is(err, ErrSegmentUnavailable) {
				// A per-segment failure (shard down, retries exhausted):
				// drop just this segment's weight and keep dispatching the
				// rest — other shards may be healthy.
				return nil
			}
			return err
		}
	})
	if errors.As(err, new(*par.Panic)) {
		return nil, Stats{}, claimError("segment build", err)
	}

	stats := Stats{Workers: workers, Segments: len(sources), SegmentParallelism: segPar}
	built := make([]sample.Part, 0, len(partials))
	var rowsDropped int64
	var pressure, unavailable error
	for i, p := range partials {
		switch {
		case p != nil:
			built = append(built, p)
			stats.Add(segStats[i])
			stats.SegmentsBuilt++
		case errors.Is(segErrs[i], errSegmentsStopped):
			rowsDropped += int64(sources[i].Rows())
			stats.SegmentDrops = append(stats.SegmentDrops, SegmentDrop{
				ID: sources[i].ID(), Rows: int64(sources[i].Rows()), Reason: "pressure",
			})
			if pressure == nil {
				pressure = pressureCause(q)
			}
		case errors.Is(segErrs[i], ErrSegmentUnavailable):
			rowsDropped += int64(sources[i].Rows())
			stats.SegmentDrops = append(stats.SegmentDrops, SegmentDrop{
				ID:     sources[i].ID(),
				Rows:   int64(sources[i].Rows()),
				Shard:  shardOf(sources[i]),
				Reason: segErrs[i].Error(),
			})
			if unavailable == nil {
				unavailable = segErrs[i]
			}
		case segErrs[i] != nil:
			return nil, stats, segErrs[i]
		default:
			// Dispatch stopped before this index was claimed: count it
			// dropped.
			rowsDropped += int64(sources[i].Rows())
			stats.SegmentDrops = append(stats.SegmentDrops, SegmentDrop{
				ID: sources[i].ID(), Rows: int64(sources[i].Rows()), Reason: "pressure",
			})
		}
	}
	if len(built) == 0 {
		// Nothing survived: this is a whole-query failure, reported as the
		// pressure that caused it — or, when every shard was unreachable,
		// as a typed unavailability so the serving layer can say so.
		if pressure != nil {
			return nil, stats, pressure
		}
		if unavailable != nil {
			return nil, stats, fmt.Errorf("engine: all %d segments unavailable (first: %v): %w",
				len(sources), unavailable, ErrSegmentUnavailable)
		}
		return nil, stats, context.DeadlineExceeded
	}

	mergeStart := time.Now()
	root := rng.NewLehmer64(seed)
	merged, err := mergeParts(built, root.Split(1<<32), workers)
	if err != nil {
		return nil, stats, err
	}
	mergeDur := time.Since(mergeStart)
	stats.Merge += mergeDur
	stats.RowsDropped = rowsDropped
	stats.Segments = len(sources)
	stats.SegmentParallelism = segPar
	stats.Workers = workers
	stats.Wall = time.Since(start)
	finishSegments(q, &stats, start, time.Now(), mergeDur)
	return merged, stats, nil
}

// buildSegment builds one segment of a segmented sample for
// runStratifiedSegments, under a per-segment-batch admission: a denial
// returns errSegmentsStopped, which drops this and later segments, not
// the query.
func buildSegment(q *Query, src SegmentSource, seed uint64, workers int) (sample.Part, Stats, error) {
	if q.Ctx != nil {
		if err := q.Ctx.Err(); err != nil {
			return nil, Stats{}, err
		}
	}
	if q.Budget != nil {
		est := src.MemEstimate(workers)
		if err := q.Budget.Reserve(est); err != nil {
			return nil, Stats{}, errSegmentsStopped
		}
		defer q.Budget.Release(est)
	}
	buildStart := time.Now()
	sam, st, err := src.Build(workers, seed^(uint64(src.ID())+1)*0x9E3779B97F4A7C15)
	if err != nil {
		return nil, Stats{}, err
	}
	recordSegmentSpan(q, src, buildStart)
	return sam, st, nil
}

// shardOf names the shard behind a source, "" for local ones.
func shardOf(s SegmentSource) string {
	if ss, ok := s.(ShardedSource); ok {
		return ss.Shard()
	}
	return ""
}

// recordSegmentSpan attaches one per-segment child span for sources that
// ran on a remote shard, carrying the shard= attribute EXPLAIN ANALYZE
// surfaces. Local builds stay un-spanned: the aggregate segments span
// already covers them, and S spans per local query would be noise.
func recordSegmentSpan(q *Query, s SegmentSource, start time.Time) {
	shard := shardOf(s)
	if shard == "" {
		return
	}
	if sp := obs.SpanFrom(q.Ctx); sp != nil {
		p := sp.Record("segment", start, time.Now())
		p.SetAttrInt("id", int64(s.ID()))
		p.SetAttr("shard", shard)
	}
}

// pressureCause names the pressure that stopped dispatch, for the
// nothing-built failure path: an expired deadline if the context shows
// one, otherwise the memory budget.
func pressureCause(q *Query) error {
	if q.Ctx != nil && q.Ctx.Err() != nil {
		return q.Ctx.Err()
	}
	return governor.ErrMemoryBudget
}

// finishSegments publishes one coordinator run: segment counters, the
// merge-cost histogram, and a trace span EXPLAIN ANALYZE renders.
func finishSegments(q *Query, st *Stats, start, end time.Time, merge time.Duration) {
	if reg := obs.RegistryFrom(q.Ctx); reg != nil {
		reg.Counter(obs.MEngineSegmentRuns).Inc()
		reg.Counter(obs.MEngineSegmentBuilds).Add(int64(st.SegmentsBuilt))
		reg.Counter(obs.MEngineSegmentsDropped).Add(int64(st.Segments - st.SegmentsBuilt))
		reg.Histogram(obs.MEngineSegmentMergeSeconds).Observe(merge)
	}
	if sp := obs.SpanFrom(q.Ctx); sp != nil {
		p := sp.Record("segments", start, end)
		p.SetAttrInt("segments", int64(st.Segments))
		p.SetAttrInt("built", int64(st.SegmentsBuilt))
		p.SetAttrInt("dropped", int64(st.Segments-st.SegmentsBuilt))
		p.SetAttrInt("parallelism", int64(st.SegmentParallelism))
		p.SetAttrInt("merge_ns", merge.Nanoseconds())
		p.SetAttrInt("rows_dropped", st.RowsDropped)
		for _, d := range st.SegmentDrops {
			c := p.Record("segment_dropped", end, end)
			c.SetAttrInt("id", int64(d.ID))
			c.SetAttrInt("rows", d.Rows)
			if d.Shard != "" {
				c.SetAttr("shard", d.Shard)
			}
			c.SetAttr("reason", d.Reason)
		}
	}
}
