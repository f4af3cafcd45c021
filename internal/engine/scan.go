package engine

import (
	"sync"
	"time"

	"laqy/internal/expr"
	"laqy/internal/par"
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

// morselPlan is the per-run classification of a scan, built once in the
// prologue: the morsel list and the zone maps the filter's interval
// conjuncts are checked against — one per non-empty segment overlapping the
// scan range, each summarizing only its own rows. Building the plan may
// lazily build those maps (a one-off read of a segment, carried across
// appends for as long as the segment is unchanged), so the per-morsel lookup
// allocates nothing.
//
// It is the only reader of Query.DisableZoneMaps (the oracle switch of the
// equivalence suites): both scan bodies consume the same verdicts, so they
// cannot disagree about a morsel, and under the switch no morsel is whole.
type morselPlan struct {
	from, to int
	morsels  []storage.Morsel
	filter   *expr.Filter

	zms []*storage.ZoneMap // in row order; empty = no pruning: every morsel is partial
	ivs []expr.IntervalConjunct
	all bool // every filter conjunct is single-interval

	// trivial: the filter keeps every row, so every morsel is whole (see
	// whole). Off under DisableZoneMaps, where every morsel goes through
	// the selection vector as the reference scan does.
	trivial bool
}

// newMorselPlan compiles q's filter and plans its scan range.
//
// Pruning is off when it cannot help: trivial filters select everything
// anyway, filters with no single-interval conjunct give the zone maps
// nothing to intersect, and empty segments have no zones.
func newMorselPlan(q *Query) (*morselPlan, error) {
	filter, err := expr.Compile(q.Filter, q.resolveFact)
	if err != nil {
		return nil, err
	}
	from, to := q.scanBounds()
	p := &morselPlan{from: from, to: to, morsels: storage.MorselsRange(from, to, 0), filter: filter}
	if filter.Trivial() || q.DisableZoneMaps {
		p.trivial = filter.Trivial() && !q.DisableZoneMaps
		return p, nil
	}
	if p.ivs, p.all = filter.IntervalConjuncts(); len(p.ivs) == 0 {
		return p, nil
	}
	for _, seg := range q.Fact.Segments() {
		if seg.End() <= from || seg.Start() >= to {
			continue
		}
		if zm := seg.ZoneMap(); zm != nil {
			p.zms = append(p.zms, zm)
		}
	}
	return p, nil
}

// lookup resolves one morsel to its zone-map verdict. It runs once per
// morsel, never per row: a handful of map lookups and compares buys
// skipping up to DefaultMorselSize rows.
func (p *morselPlan) lookup(start, end int) morselVerdict {
	if len(p.zms) == 0 {
		return morselPartial
	}
	v := morselPartial
	if p.all {
		v = morselFull
	}
	for i := range p.ivs {
		iv := &p.ivs[i]
		lo, hi, ok := p.bounds(iv.Name, start, end)
		if !ok {
			// Unknown column: no judgement for this conjunct, so the full
			// fast path is off the table.
			v = morselPartial
			continue
		}
		if hi < iv.Lo || lo > iv.Hi {
			return morselSkip
		}
		if lo < iv.Lo || hi > iv.Hi {
			v = morselPartial
		}
	}
	return v
}

// whole reports whether the scan filter keeps every row of a morsel with
// verdict v: the zone map proved it (morselFull), or the filter is trivial.
// Only morselFull counts in Stats.MorselsFull; a whole morsel's rows need no
// selection pass, so a pipeline hands them to its first join probe as a
// range.
func (p *morselPlan) whole(v morselVerdict) bool { return v == morselFull || p.trivial }

// bounds folds the named column's value bounds over the segments the morsel
// [start, end) overlaps. The plan's maps tile the scan range, so a morsel
// inside one segment reads one map and a morsel straddling a boundary (a
// segment sealed at a row count that is not a multiple of the morsel size,
// or an unaligned ScanFrom) folds both sides; either way the bounds hold
// for every row of the morsel.
func (p *morselPlan) bounds(name string, start, end int) (lo, hi int64, ok bool) {
	for _, zm := range p.zms {
		if zm.End() <= start {
			continue
		}
		if zm.Start() >= end {
			break
		}
		l, h, found := zm.Bounds(name, max(start, zm.Start()), min(end, zm.End()))
		if !found {
			return 0, 0, false
		}
		if !ok || l < lo {
			lo = l
		}
		if !ok || h > hi {
			hi = h
		}
		ok = true
	}
	return lo, hi, ok
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

// scanWorker is one participant's state inside the driver: its leased
// scratch (any growth of sel stays with the pooled set) and its share of
// the run's Stats — per-phase time and row/morsel counts, summed after the
// wait.
type scanWorker struct {
	*morselScratch
	st Stats
}

// morselBody is what one worker does with a morsel the plan did not skip:
// select (a body may skip that for a whole morsel, see morselPlan.whole),
// then consume. It returns the rows surviving filter and joins and the
// share of its time spent past the scan, which the driver books as
// Stats.Process; the rest of the morsel's time is Stats.Scan. Bodies that fold a morsel without a selection vector
// count it in ws.st.MorselsFused.
type morselBody func(ws *scanWorker, mo storage.Morsel, v morselVerdict) (selected int, process time.Duration)

// run is the engine's one morsel-parallel scan: participants claim morsels
// through par.Claim, each with a leased scratch set (nJoins probe maps,
// nSources gather vectors) and the body newBody makes for its number w —
// and, for sinks that can fail mid-run (failableSink), a poll of that
// failure. A canceled context, checked before each morsel, or a failure
// polled after one stops every participant at its next morsel and becomes
// the run's error; so does a panic in a body (kernel bug, corrupt column),
// with the stack captured, instead of killing the process.
//
// The indirection is one body call per morsel, never per row. The prologue
// may allocate; the per-morsel item must not.
//
//laqy:hot morsel-parallel scan driver
func (p *morselPlan) run(q *Query, workers, nJoins, nSources int, newBody func(w int) (morselBody, func() error)) (Stats, error) {
	morsels := p.morsels
	start := time.Now()
	ws := make([]scanWorker, max(workers, 1)) // participant w owns ws[w]
	ran, err := par.Claim(len(morsels), workers, func(w int) func(m int) error {
		s := &ws[w]
		s.morselScratch = leaseMorselScratch(nJoins, nSources)
		body, failed := newBody(w)
		return func(m int) error {
			if q.Ctx != nil {
				if err := q.Ctx.Err(); err != nil {
					return err
				}
			}
			mo := morsels[m]
			t0 := time.Now()
			v := p.lookup(mo.Start, mo.End)
			switch v {
			case morselSkip:
				s.st.MorselsPruned++
				s.st.Scan += time.Since(t0)
				return nil
			case morselFull:
				s.st.MorselsFull++
			}
			n, process := body(s, mo, v)
			s.st.RowsSelected += int64(n)
			s.st.Process += process
			s.st.Scan += time.Since(t0) - process
			if failed != nil {
				return failed()
			}
			return nil
		}
	})
	var stats Stats
	for _, s := range ws[:ran] { //laqy:allow ctxpoll one fold per participant, after the wait
		morselScratchPool.Put(s.morselScratch) //laqy:allow hotalloc pointer into interface, once per participant after the wait (not per morsel)
		stats.Add(s.st)
	}
	if err != nil {
		return Stats{}, claimError("morsel worker", err)
	}

	// Scan and Process are per-participant CPU totals averaged over the
	// participants that ran. An empty morsel set (e.g. a no-op incremental
	// delta) ran none; report zero phase times instead of dividing by zero.
	if ran > 0 {
		stats.Scan /= time.Duration(ran)
		stats.Process /= time.Duration(ran)
	}
	end := time.Now()
	stats.Wall = end.Sub(start)
	stats.RowsScanned = int64(p.to - p.from)
	stats.Workers = ran
	finishPipeline(q, &stats, len(morsels), start, end)
	return stats, nil
}
