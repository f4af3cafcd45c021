package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"laqy/internal/expr"
	"laqy/internal/storage"
)

// morselVerdict is the zone map's judgement of one morsel against the
// single-interval conjuncts of the scan filter. Verdicts are exact, never
// statistical: a skipped morsel provably selects nothing and a full morsel
// provably selects everything, so pruned scans are bit-identical to
// unpruned reference scans (TestZoneMapPruningMatchesReference).
type morselVerdict uint8

const (
	// morselPartial: the morsel's value ranges straddle the predicate (or
	// the zone map has no opinion) — evaluate the filter per row.
	morselPartial morselVerdict = iota
	// morselSkip: some conjunct's interval is disjoint from the morsel's
	// value range — no row can qualify, skip without touching the data.
	morselSkip
	// morselFull: every conjunct is a single interval and the morsel's
	// value ranges sit inside all of them — every row qualifies, no per-row
	// compares needed.
	morselFull
)

// segmentBinding is the scan's compilation against one sealed segment's
// encodings: the filter bound to the segment's encoded columns (nil =
// plain kernels) and, for fused aggregation, each expression's encoded
// left operand (nil entries = plain vector).
type segmentBinding struct {
	start, end int
	ef         *expr.EncodedFilter
	cols       []*storage.EncodedCol
}

// morselPlan is the per-run classification of a scan, built once in the
// prologue: the morsel list, the zone map the filter's interval conjuncts
// are checked against, and one binding per sealed segment that overlaps
// the scan range and encodes something the run can use. Building it may
// lazily build zone maps and segment encodings — one-off reads amortized
// across every later scan — so the per-morsel lookup allocates nothing.
//
// It is the only reader of Query.DisableZoneMaps and Query.DisableEncoding
// (the oracle switches of the equivalence suites): both scan bodies consume
// the same verdicts and bindings, so they cannot disagree about a morsel.
type morselPlan struct {
	from, to int
	morsels  []storage.Morsel
	filter   *expr.Filter

	zm  *storage.ZoneMap // nil = no pruning: every morsel is partial
	ivs []expr.IntervalConjunct
	all bool // every filter conjunct is single-interval

	segs []segmentBinding
}

// newMorselPlan compiles q's filter and plans its scan range. aggs lists
// the fused-aggregate expressions whose operands should bind to encoded
// columns (nil for the materializing pipeline).
//
// Pruning is off when it cannot help: trivial filters select everything
// anyway, filters with no single-interval conjunct give the zone map
// nothing to intersect, and empty tables have no zones. A scan range inside
// a single segment of a multi-segment table uses that segment's own zone
// map: segment-scoped builds then summarize only their segment's rows, and
// sealed segments reuse the map carried across appends instead of forcing a
// whole-table rebuild. A trivial filter binds no encodings either: with no
// verdict ever full, nothing would read them.
func newMorselPlan(q *Query, aggs []ColumnExpr) (*morselPlan, error) {
	filter, err := expr.Compile(q.Filter, q.resolveFact)
	if err != nil {
		return nil, err
	}
	from, to := q.scanBounds()
	p := &morselPlan{from: from, to: to, morsels: storage.MorselsRange(from, to, 0), filter: filter}
	if filter.Trivial() {
		return p, nil
	}
	if !q.DisableZoneMaps {
		if p.ivs, p.all = filter.IntervalConjuncts(); len(p.ivs) > 0 {
			if seg := q.Fact.SegmentSpanning(from, to); seg != nil {
				p.zm = seg.ZoneMap()
			} else {
				p.zm = q.Fact.ZoneMap()
			}
		}
	}
	if q.DisableEncoding {
		return p, nil
	}
	for _, seg := range q.Fact.Segments() {
		if seg.End() <= from || seg.Start() >= to {
			continue
		}
		enc := seg.Encoding()
		if enc == nil || enc.NumEncoded() == 0 {
			continue
		}
		b := segmentBinding{start: seg.Start(), end: seg.End(), ef: filter.BindEncoded(enc, seg.Start())}
		bound := b.ef != nil
		for _, ce := range aggs {
			var ec *storage.EncodedCol
			// Two-column expressions still need per-row access to the right
			// operand, so run arithmetic cannot fold them.
			if ce.Op == 0 || ce.RightIsLit {
				ec = enc.Col(ce.Left)
			}
			b.cols = append(b.cols, ec)
			bound = bound || ec != nil
		}
		if bound {
			p.segs = append(p.segs, b)
		}
	}
	return p, nil
}

// lookup resolves one morsel: its zone-map verdict and, unless it is
// skipped, the binding of the sealed segment fully containing it. Morsels
// that straddle a segment boundary (possible when ScanFrom is not
// segment-aligned, e.g. Δ-scans) and morsels over the open segment resolve
// to a nil binding and take the plain kernels; answers are identical either
// way. It runs once per morsel, never per row: a handful of map lookups and
// compares buys skipping up to DefaultMorselSize rows.
func (p *morselPlan) lookup(start, end int) (morselVerdict, *segmentBinding) {
	v := morselPartial
	if p.zm != nil {
		if p.all {
			v = morselFull
		}
		for i := range p.ivs {
			iv := &p.ivs[i]
			lo, hi, ok := p.zm.Bounds(iv.Name, start, end)
			if !ok {
				// Unknown column or out-of-range morsel: no judgement for
				// this conjunct, so the full fast path is off the table.
				v = morselPartial
				continue
			}
			if hi < iv.Lo || lo > iv.Hi {
				return morselSkip, nil
			}
			if lo < iv.Lo || hi > iv.Hi {
				v = morselPartial
			}
		}
	}
	for i := range p.segs {
		if start >= p.segs[i].start && end <= p.segs[i].end {
			return v, &p.segs[i]
		}
	}
	return v, nil
}

// selectInto evaluates the filter over a partial morsel, through the
// segment's encoded kernels when it has a bound filter and the plain
// vector kernels otherwise.
func (p *morselPlan) selectInto(b *segmentBinding, mo storage.Morsel, sel []int32) []int32 {
	if b != nil && b.ef != nil {
		return b.ef.SelectInto(mo.Start, mo.End, sel)
	}
	return p.filter.SelectInto(mo.Start, mo.End, sel)
}

// morselScratch is one worker's reusable per-morsel buffers: the selection
// vector, join-probe row maps, gathered column vectors, and the gather
// scratch. All are sized in DefaultMorselSize units, so a leased set fits
// any pipeline. Pooling matters because the segment-parallel coordinator
// runs one sub-pipeline per segment: without reuse a W-worker build over S
// segments would allocate (and the allocator would zero) S×W sets of
// multi-megabyte buffers per build, which dominates single-core segmented
// builds. The pool caps live sets at the peak concurrent worker count.
type morselScratch struct {
	sel      []int32
	dimRows  [][]int32
	gathered [][]int64
	scratch  []int64
}

var morselScratchPool = sync.Pool{New: func() any { return new(morselScratch) }}

// leaseMorselScratch returns a scratch set with at least nJoins probe maps
// and nSources gather vectors; return it with morselScratchPool.Put.
func leaseMorselScratch(nJoins, nSources int) *morselScratch {
	s := morselScratchPool.Get().(*morselScratch)
	if s.sel == nil {
		s.sel = make([]int32, 0, storage.DefaultMorselSize)
	}
	for len(s.dimRows) < nJoins {
		s.dimRows = append(s.dimRows, make([]int32, storage.DefaultMorselSize))
	}
	for len(s.gathered) < nSources {
		s.gathered = append(s.gathered, make([]int64, storage.DefaultMorselSize))
	}
	if s.scratch == nil {
		s.scratch = make([]int64, storage.DefaultMorselSize)
	}
	return s
}

// scanWorker is one worker's state inside the driver: its leased scratch
// (any growth of sel stays with the pooled set) and its share of the run's
// Stats — per-phase time and row/morsel counts, summed after the join.
type scanWorker struct {
	*morselScratch
	st Stats
}

// morselBody is what one worker does with a morsel the plan did not skip:
// select (unless the verdict is full), then consume. It returns the rows
// surviving filter and joins and the share of its time spent past the
// scan, which the driver books as Stats.Process; the rest of the morsel's
// time is Stats.Scan. Bodies that fold a morsel without a selection vector
// count it in ws.st.MorselsFused.
type morselBody func(ws *scanWorker, mo storage.Morsel, v morselVerdict, b *segmentBinding) (selected int, process time.Duration)

// run is the engine's one morsel-parallel worker loop. Each of up to
// `workers` goroutines leases a scratch set (nJoins probe maps, nSources
// gather vectors), asks newBody for its body — and, for sinks that can fail
// mid-run (failableSink), a poll of that failure — then claims morsels until
// none are left, the context is canceled, or some worker's poll reports an
// error, which aborts all workers at their next morsel boundary and becomes
// the run's error. A panic in a body (kernel bug, corrupt column) fails the
// run through the same error path, with the stack captured, instead of
// killing the process.
//
// The indirection is one body call per morsel, never per row. The prologue
// may allocate; the per-morsel loop must not.
//
//laqy:hot morsel-parallel scan driver
func (p *morselPlan) run(q *Query, workers, nJoins, nSources int, newBody func(w int) (morselBody, func() error)) (Stats, error) {
	morsels := p.morsels
	// Cap the parallelism at the morsel count: spawning more goroutines
	// than morsels wastes scheduling work, and dividing the per-phase CPU
	// totals by idle workers under-reports Scan/Process for small deltas.
	// (Segmented runs cap at the TOTAL morsel count across segments before
	// dividing the budget — see runStratifiedSegments — so small segments
	// don't starve the global parallelism; this local cap only trims the
	// share handed to one sub-pipeline.)
	if workers > len(morsels) {
		workers = len(morsels)
	}
	var next atomic.Int64
	var canceled, aborted atomic.Bool
	start := time.Now()

	var wg sync.WaitGroup
	workerErrs := make([]error, workers)
	var stats Stats // per-worker shares, folded in under mu as workers retire
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Worker-slot write: each goroutine owns workerErrs[w].
			defer func() {
				if r := recover(); r != nil {
					workerErrs[w] = panicError("morsel worker", r)
				}
			}()
			body, failed := newBody(w)
			ws := scanWorker{morselScratch: leaseMorselScratch(nJoins, nSources)}
			defer morselScratchPool.Put(ws.morselScratch) //laqy:allow hotalloc pointer into interface, once per worker retirement (not per morsel)
			for {
				m := int(next.Add(1)) - 1
				if m >= len(morsels) {
					break
				}
				if q.Ctx != nil && q.Ctx.Err() != nil {
					canceled.Store(true)
					break
				}
				if aborted.Load() {
					break
				}
				if failed != nil {
					if err := failed(); err != nil {
						workerErrs[w] = err
						aborted.Store(true)
						break
					}
				}
				mo := morsels[m]

				t0 := time.Now()
				v, b := p.lookup(mo.Start, mo.End)
				switch {
				case v == morselSkip:
					ws.st.MorselsPruned++
					ws.st.Scan += time.Since(t0)
					continue
				case v == morselFull:
					ws.st.MorselsFull++
				case b != nil && b.ef != nil:
					ws.st.MorselsEncoded++
				}
				n, process := body(&ws, mo, v, b)
				ws.st.RowsSelected += int64(n)
				ws.st.Process += process
				ws.st.Scan += time.Since(t0) - process
			}
			// A failure during the final morsel has no next boundary to be
			// polled at: re-check before the worker retires.
			if failed != nil && workerErrs[w] == nil {
				if err := failed(); err != nil {
					workerErrs[w] = err
					aborted.Store(true)
				}
			}
			mu.Lock()
			stats.Add(ws.st)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if err := firstError(workerErrs); err != nil {
		return Stats{}, err
	}
	if canceled.Load() {
		return Stats{}, q.Ctx.Err()
	}

	// Scan and Process are per-worker CPU totals averaged over the workers.
	// An empty morsel set (e.g. a no-op incremental delta) spawned none;
	// report zero phase times instead of dividing by zero.
	if workers > 0 {
		stats.Scan /= time.Duration(workers)
		stats.Process /= time.Duration(workers)
	}
	end := time.Now()
	stats.Wall = end.Sub(start)
	stats.RowsScanned = int64(p.to - p.from)
	stats.Workers = workers
	finishPipeline(q, &stats, len(morsels), start, end)
	return stats, nil
}
