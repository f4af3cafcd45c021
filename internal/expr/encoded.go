// Selection kernels over encoded columns (storage/encode.go): the filter's
// conjuncts evaluate directly against a sealed segment's const or RLE
// representations — the plain vector is not read, and the per-row work
// shrinks with the representation:
//
//   - EncConst: one value test decides the whole range (all or none);
//   - EncRLE:   one value test per run, then a compare-free FillRange for
//     passing runs (producer) or a monotonic merge-walk against the runs
//     (refiner) — run-granular skip/take composing with the zone map's
//     morsel-granular skip/full/none.
//
// Columns storage declined to encode (short runs, shuffled domains) take
// the plain kernels of expr.go: an encoding is bound only where its scan is
// never slower than the plain compare.
//
// Dictionary-encoded string columns need nothing special here: their codes
// are order-preserving integers, so a string range predicate is already an
// integer interval test and composes with both encodings.
package expr

import (
	"laqy/internal/storage"
)

// EncodedFilter is a Filter bound to one sealed segment's encodings: each
// conjunct resolves to the segment's EncodedCol or stays on its plain
// vector. Built once per (query, segment) in the scan prologue; SelectInto
// is then allocation-free per morsel. Immutable and safe for concurrent
// workers.
type EncodedFilter struct {
	f    *Filter
	cols []*storage.EncodedCol // aligned with f.cols; nil = use the plain vector
	base int                   // absolute row of the segment's first row
}

// BindEncoded binds the filter to one segment's encodings. segBase is the
// absolute row index of the segment's first row (EncodedCols are
// segment-relative). Returns nil when no conjunct has an encoding there —
// the caller keeps the plain path, paying zero per-morsel overhead.
func (f *Filter) BindEncoded(enc *storage.SegmentEncoding, segBase int) *EncodedFilter {
	if f.Trivial() || enc == nil || enc.NumEncoded() == 0 {
		return nil
	}
	var ef *EncodedFilter
	for i := range f.cols {
		ec := enc.Col(f.cols[i].name)
		if ec == nil {
			continue
		}
		if ef == nil {
			ef = &EncodedFilter{f: f, base: segBase, cols: make([]*storage.EncodedCol, len(f.cols))}
		}
		ef.cols[i] = ec
	}
	return ef
}

// SelectInto appends the qualifying row indices of [start, end) to sel,
// exactly like Filter.SelectInto but evaluating encoded conjuncts over
// their encoded representation. The range must lie inside the bound
// segment. Answers are bit-identical to the plain path (the equivalence
// suite pins this).
//
//laqy:hot per-chunk encoded filter evaluation
func (ef *EncodedFilter) SelectInto(start, end int, sel []int32) []int32 {
	if end <= start {
		return sel
	}
	f := ef.f
	base := len(sel)
	sel = growSel(sel, end-start)
	if ec := ef.cols[0]; ec != nil {
		sel = produceEncoded(&f.cols[0], ec, ef.base, start, end, sel)
	} else {
		sel = producePlain(&f.cols[0], start, end, sel)
	}
	for ci := 1; ci < len(f.cols); ci++ {
		live := sel[base:]
		var n int
		if ec := ef.cols[ci]; ec != nil {
			n = refineEncoded(&f.cols[ci], ec, ef.base, live)
		} else {
			n = refinePlain(&f.cols[ci], live)
		}
		sel = sel[:base+n]
	}
	return sel
}

// ccContains reports whether the conjunct accepts value v — the
// run-granularity test shared by the const and RLE kernels.
func ccContains(cc *compiledCol, v int64) bool {
	switch {
	case cc.single:
		return uint64(v-cc.lo) <= uint64(cc.hi-cc.lo)
	case cc.few:
		return cc.ivs[0].hit(v)|cc.ivs[1].hit(v) != 0
	default:
		return cc.set.Contains(v)
	}
}

// produceEncoded appends the rows of [start, end) accepted by cc to sel,
// reading the encoded column. Capacity for end-start rows is pre-grown by
// the caller.
func produceEncoded(cc *compiledCol, ec *storage.EncodedCol, segBase, start, end int, sel []int32) []int32 {
	if ec.Kind == storage.EncRLE {
		return produceRLE(cc, ec, segBase, start, end, sel)
	}
	if ccContains(cc, ec.Value) {
		return FillRange(sel, start, end)
	}
	return sel
}

// produceRLE is the run-granular producer: one predicate test per run, then
// a compare-free fill of each passing run's row range.
//
//laqy:hot run-granular RLE selection producer
func produceRLE(cc *compiledCol, ec *storage.EncodedCol, segBase, start, end int, sel []int32) []int32 {
	ri := ec.RunContaining(start - segBase)
	for lo := start; lo < end; ri++ { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
		hi := segBase + ec.RunEnd(ri)
		if hi > end {
			hi = end
		}
		if ccContains(cc, ec.Values[ri]) {
			sel = FillRange(sel, lo, hi)
		}
		lo = hi
	}
	return sel
}

// refineEncoded compacts live in place to the rows accepted by cc, reading
// the encoded column, and returns the surviving count.
func refineEncoded(cc *compiledCol, ec *storage.EncodedCol, segBase int, live []int32) int {
	if ec.Kind == storage.EncRLE {
		return refineRLE(cc, ec, segBase, live)
	}
	if ccContains(cc, ec.Value) {
		return len(live)
	}
	return 0
}

// refineRLE merge-walks the ascending selection against the runs: the run
// cursor only ever advances, and each run's stretch of the selection is
// found with one compare per row and kept (a block move) or dropped whole on
// one predicate test — no per-row value load at all.
//
//laqy:hot RLE merge-walk selection refiner
func refineRLE(cc *compiledCol, ec *storage.EncodedCol, segBase int, live []int32) int {
	if len(live) == 0 {
		return 0
	}
	n := 0
	ri := ec.RunContaining(int(live[0]) - segBase)
	for i := 0; i < len(live); ri++ { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
		rEnd := int32(segBase + ec.RunEnd(ri))
		j := i
		for j < len(live) && live[j] < rEnd {
			j++
		}
		if j > i && ccContains(cc, ec.Values[ri]) {
			n += copy(live[n:], live[i:j])
		}
		i = j
	}
	return n
}

// PassRuns decomposes the filter's verdict over [start, end) into
// run-granular all-pass ranges: fn is invoked, in ascending order, for each
// stretch between run boundaries in which every row provably passes every
// conjunct. It reports ok=false —
// without calling fn — when the filter does not decompose at run
// granularity over this segment (any conjunct is plain there). The engine's fused aggregate path folds the reported ranges
// straight into run_value×run_length arithmetic with no selection vector.
func (ef *EncodedFilter) PassRuns(start, end int, fn func(lo, hi int)) bool {
	f := ef.f
	for ci := range f.cols {
		if ef.cols[ci] == nil {
			return false
		}
	}
	lo := start
	for lo < end {
		hi := end
		pass := true
		for ci := range f.cols {
			ec := ef.cols[ci]
			if ec.Kind == storage.EncConst {
				pass = pass && ccContains(&f.cols[ci], ec.Value)
				continue
			}
			ri := ec.RunContaining(lo - ef.base)
			if runEnd := ef.base + ec.RunEnd(ri); runEnd < hi {
				hi = runEnd
			}
			pass = pass && ccContains(&f.cols[ci], ec.Values[ri])
		}
		if pass {
			fn(lo, hi)
		}
		lo = hi
	}
	return true
}
