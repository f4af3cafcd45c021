// Package expr compiles the declarative predicates of package algebra into
// executable, vectorized filters: over column vectors for scans, and over a
// sample's row-major tuples for tightening.
//
// The engine evaluates predicates chunk-at-a-time into selection vectors;
// the common single-interval constraint (BETWEEN) compiles to a two-compare
// loop, standing in for the specialized code Proteus would JIT-generate for
// the same predicate.
package expr

import (
	"fmt"

	"laqy/internal/algebra"
	"laqy/internal/sample"
)

// compiledCol is one conjunct of a compiled filter: a column vector plus
// its constraint.
type compiledCol struct {
	name string
	vec  []int64
	conjunct
}

// conjunct is one column's constraint with the branchless fast paths
// precomputed — the form both the column filter and the tuple filter run.
type conjunct struct {
	set    algebra.Set
	lo, hi int64
	single bool // constraint is one interval: lo <= v <= hi
	// few: the constraint is exactly maxBranchlessIntervals intervals, held
	// in ivs in wraparound form — the Δ-range shape, "query range minus
	// stored range": an interval either side of the stored one.
	few bool
	ivs [maxBranchlessIntervals]wrapInterval
}

// compileConjunct picks set's fast path: one interval, exactly
// maxBranchlessIntervals intervals, or Set.Contains.
func compileConjunct(set algebra.Set) conjunct {
	c := conjunct{set: set}
	switch ivs := set.Intervals(); len(ivs) {
	case 1:
		c.single, c.lo, c.hi = true, ivs[0].Lo, ivs[0].Hi
	case maxBranchlessIntervals:
		c.few = true
		for i, iv := range ivs {
			c.ivs[i] = wrapInterval{lo: iv.Lo, width: uint64(iv.Hi - iv.Lo)}
		}
	}
	return c
}

// wrapInterval is [lo, lo+width] prepared for the one-compare membership
// test uint64(v-lo) <= width, exact for all int64 lo <= hi.
type wrapInterval struct {
	lo    int64
	width uint64
}

// hit reports (as 0/1) whether v lies in the interval.
func (w wrapInterval) hit(v int64) int { return b2i(uint64(v-w.lo) <= w.width) }

// maxBranchlessIntervals is the crossover between the branchless k-interval
// test (the OR of k wraparound compares feeding the same cursor as the
// single-interval loop) and Set.Contains (a binary search: log k branches per
// row, mispredicted on shuffled data). At two intervals the OR, hoisted into
// registers, costs 1.3–1.7× the single-interval loop and a tenth of Set.Contains
// (`go test -bench Select`: /delta2 against /multiinterval). Past two
// the compares stop fitting one hoisted loop body: four behind a
// loop-invariant branch slowed the two-interval case by a third, and a
// fixed-trip loop over k of them (835 µs per 64 Ki rows at k = 8) loses to a
// binary search whose branches predict (437 µs on sorted values), so wider
// sets, which no traced Δ-range produces, keep Set.Contains.
const maxBranchlessIntervals = 2

// Filter is a compiled conjunctive range predicate bound to a set of column
// vectors. It is immutable and safe for concurrent use by parallel scan
// workers.
type Filter struct {
	cols []compiledCol
}

// Compile binds predicate p to column vectors via resolve, which maps a
// column name to its data vector (or nil if unknown). An unsatisfiable
// predicate compiles successfully and selects nothing.
func Compile(p algebra.Predicate, resolve func(name string) []int64) (*Filter, error) {
	f := &Filter{}
	for _, name := range p.Columns() {
		set, _ := p.Constraint(name)
		vec := resolve(name)
		if vec == nil {
			return nil, fmt.Errorf("expr: unknown column %q in predicate", name)
		}
		f.cols = append(f.cols, compiledCol{name: name, vec: vec, conjunct: compileConjunct(set)})
	}
	return f, nil
}

// Trivial reports whether the filter accepts every row.
func (f *Filter) Trivial() bool { return len(f.cols) == 0 }

// IntervalConjunct is the zone-map-visible form of one conjunct: a named
// column constrained to a single closed interval [Lo, Hi]. The engine's
// morsel pruner intersects these with per-morsel min/max summaries.
type IntervalConjunct struct {
	Name   string
	Lo, Hi int64
}

// IntervalConjuncts returns the filter's single-interval conjuncts (in
// conjunct order) and reports whether every conjunct is single-interval.
// When all is true, a row range whose per-column value bounds sit entirely
// inside every returned interval is known to qualify wholesale — the
// full-morsel fast path; any returned conjunct whose interval is disjoint
// from a range's bounds disqualifies the whole range — the skip path.
func (f *Filter) IntervalConjuncts() (ivs []IntervalConjunct, all bool) {
	all = true
	for _, cc := range f.cols {
		if !cc.single {
			all = false
			continue
		}
		ivs = append(ivs, IntervalConjunct{Name: cc.name, Lo: cc.lo, Hi: cc.hi})
	}
	return ivs, all
}

// b2i converts a bool to 0/1. The compiler lowers this to a flag-set
// instruction (SETcc) when inlined, which is what makes the selection
// kernels below branchless: the unpredictable "does this row qualify?"
// outcome feeds an add, not a branch, so selectivities near 50% no longer
// pay a misprediction per row.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// growSel ensures sel can hold need more elements beyond its current
// length with a single capacity check, preserving its contents.
func growSel(sel []int32, need int) []int32 {
	if cap(sel)-len(sel) >= need {
		return sel
	}
	out := make([]int32, len(sel), len(sel)+need)
	copy(out, sel)
	return out
}

// FillRange appends the row indices [start, end) to sel with one capacity
// check and no per-row compares — the kernel behind both the trivial
// filter and the engine's full-morsel zone-map fast path.
//
//laqy:hot compare-free selection fill on the scan path
func FillRange(sel []int32, start, end int) []int32 {
	if end <= start {
		return sel
	}
	n := len(sel)
	sel = growSel(sel, end-start)
	buf := sel[:n+end-start]
	fill := buf[n:]
	for i := range fill { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
		fill[i] = int32(start + i)
	}
	return buf
}

// SelectInto appends the qualifying row indices of [start, end) to sel and
// returns the extended slice. Callers reuse sel across chunks to avoid
// allocation in the scan hot loop.
//
// Single-interval conjuncts run branchless: every row's index is stored
// unconditionally at the compaction cursor, and the cursor advances by the
// 0/1 outcome of a wraparound range test (`sel[n] = i; n += inRange`), so
// the loop carries no data-dependent branch. The wraparound test
// `uint64(v-lo) <= uint64(hi-lo)` is exact for all int64 lo <= hi: it is
// the [lo, hi] membership test folded into one unsigned compare.
// Two-interval constraints (Δ-ranges) run the same cursor with the OR of
// their wraparound tests; only wider interval sets keep the Set.Contains
// fallback (maxBranchlessIntervals).
//
//laqy:hot per-chunk filter evaluation, the innermost scan loop
func (f *Filter) SelectInto(start, end int, sel []int32) []int32 {
	if end <= start {
		return sel
	}
	if f.Trivial() {
		return FillRange(sel, start, end)
	}
	// First conjunct scans the range directly; the rest refine sel.
	base := len(sel)
	sel = growSel(sel, end-start)
	sel = producePlain(&f.cols[0], start, end, sel)
	for ci := 1; ci < len(f.cols); ci++ {
		sel = sel[:base+refinePlain(&f.cols[ci], sel[base:])]
	}
	return sel
}

// producePlain appends the rows of [start, end) accepted by cc to sel,
// whose capacity the caller has already grown by end-start.
//
//laqy:hot branchless selection producer
func producePlain(cc *compiledCol, start, end int, sel []int32) []int32 {
	n := len(sel)
	switch {
	case cc.single:
		buf, vec := sel[:n+end-start], cc.vec
		lo := cc.lo
		width := uint64(cc.hi - cc.lo)
		for i := start; i < end; i++ { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
			buf[n] = int32(i)
			n += b2i(uint64(vec[i]-lo) <= width)
		}
		return buf[:n]
	case cc.few:
		buf, vec := sel[:n+end-start], cc.vec
		a, b := cc.ivs[0], cc.ivs[1]
		for i := start; i < end; i++ { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
			buf[n] = int32(i)
			n += a.hit(vec[i]) | b.hit(vec[i])
		}
		return buf[:n]
	}
	for i := start; i < end; i++ { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
		if cc.set.Contains(cc.vec[i]) {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

// refinePlain compacts live in place to the rows accepted by cc, returning
// the surviving count (the same cursor and row tests as producePlain).
//
//laqy:hot branchless selection refiner
func refinePlain(cc *compiledCol, live []int32) int {
	n := 0
	vec := cc.vec
	switch {
	case cc.single:
		lo := cc.lo
		width := uint64(cc.hi - cc.lo)
		for _, idx := range live { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
			live[n] = idx
			n += b2i(uint64(vec[idx]-lo) <= width)
		}
	case cc.few:
		a, b := cc.ivs[0], cc.ivs[1]
		for _, idx := range live { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
			live[n] = idx
			n += a.hit(vec[idx]) | b.hit(vec[idx])
		}
	default:
		for _, idx := range live { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
			live[n] = idx
			n += b2i(cc.set.Contains(vec[idx]))
		}
	}
	return n
}

// TupleFilter is a predicate compiled against a sample schema: the
// tightening filter a stored sample is read through (§5.2.1). Its one kernel,
// SelectTuples, runs the same conjunct forms as Filter over a reservoir's
// row-major storage. It is immutable and safe for concurrent use.
type TupleFilter struct {
	cols []tupleCol
}

// tupleCol is one conjunct of a tuple filter: the constrained column's
// offset within a tuple plus its constraint.
type tupleCol struct {
	idx int
	conjunct
}

// CompileTuples compiles predicate p against a sample schema; the tuple
// layout is the sample's column order. Columns constrained by p but absent
// from the schema yield an error — such a sample cannot be tightened
// because the filter column was not captured.
func CompileTuples(p algebra.Predicate, schema sample.Schema) (*TupleFilter, error) {
	f := &TupleFilter{}
	for _, name := range p.Columns() {
		set, _ := p.Constraint(name)
		idx := schema.Index(name)
		if idx < 0 {
			return nil, fmt.Errorf("expr: predicate column %q not captured by sample schema %v", name, schema)
		}
		f.cols = append(f.cols, tupleCol{idx: idx, conjunct: compileConjunct(set)})
	}
	return f, nil
}

// SelectTuples appends to dst the ascending indices of the width-wide tuples
// of data (a reservoir's row-major storage) the filter accepts. The first
// conjunct produces and the rest refine, with the branchless cursor of
// SelectInto, so a tightening costs one compare per tuple and conjunct.
//
//laqy:hot tightening kernel of every reuse hit
func (f *TupleFilter) SelectTuples(data []int64, width int, dst []int32) []int32 {
	n := len(data) / width
	if len(f.cols) == 0 {
		return FillRange(dst, 0, n)
	}
	base := len(dst)
	dst = growSel(dst, n)
	dst = produceTuples(&f.cols[0], data, width, n, dst)
	for ci := 1; ci < len(f.cols); ci++ {
		dst = dst[:base+refineTuples(&f.cols[ci], data, width, dst[base:])]
	}
	return dst
}

// produceTuples appends the indices of the n tuples of data accepted by tc
// to sel, whose capacity the caller has already grown by n.
//
//laqy:hot branchless tuple selection producer
func produceTuples(tc *tupleCol, data []int64, width, n int, sel []int32) []int32 {
	m := len(sel)
	buf := sel[:m+n]
	switch {
	case tc.single:
		lo, w := tc.lo, uint64(tc.hi-tc.lo)
		for i, off := 0, tc.idx; i < n; i, off = i+1, off+width { //laqy:allow ctxpoll leaf kernel; the reuse path is one stored sample, bounded by k per stratum
			buf[m] = int32(i)
			m += b2i(uint64(data[off]-lo) <= w)
		}
	case tc.few:
		a, b := tc.ivs[0], tc.ivs[1]
		for i, off := 0, tc.idx; i < n; i, off = i+1, off+width { //laqy:allow ctxpoll leaf kernel; the reuse path is one stored sample, bounded by k per stratum
			buf[m] = int32(i)
			m += a.hit(data[off]) | b.hit(data[off])
		}
	default:
		for i, off := 0, tc.idx; i < n; i, off = i+1, off+width { //laqy:allow ctxpoll leaf kernel; the reuse path is one stored sample, bounded by k per stratum
			buf[m] = int32(i)
			m += b2i(tc.set.Contains(data[off]))
		}
	}
	return buf[:m]
}

// refineTuples compacts live in place to the tuples accepted by tc, returning
// the surviving count (the same cursor and tests as produceTuples).
//
//laqy:hot branchless tuple selection refiner
func refineTuples(tc *tupleCol, data []int64, width int, live []int32) int {
	m := 0
	switch {
	case tc.single:
		lo, w := tc.lo, uint64(tc.hi-tc.lo)
		for _, i := range live { //laqy:allow ctxpoll leaf kernel; the reuse path is one stored sample, bounded by k per stratum
			live[m] = i
			m += b2i(uint64(data[int(i)*width+tc.idx]-lo) <= w)
		}
	case tc.few:
		a, b := tc.ivs[0], tc.ivs[1]
		for _, i := range live { //laqy:allow ctxpoll leaf kernel; the reuse path is one stored sample, bounded by k per stratum
			v := data[int(i)*width+tc.idx]
			live[m] = i
			m += a.hit(v) | b.hit(v)
		}
	default:
		for _, i := range live { //laqy:allow ctxpoll leaf kernel; the reuse path is one stored sample, bounded by k per stratum
			live[m] = i
			m += b2i(tc.set.Contains(data[int(i)*width+tc.idx]))
		}
	}
	return m
}
