// Package sample implements LAQy's sampling operators: reservoir sampling,
// weighted reservoir merging (the paper's Algorithm 2), stratified reservoir
// sampling, and stratified sample merging (Algorithm 3).
//
// A Reservoir is a fixed-capacity uniform sample of a stream together with
// the running count of considered elements (its weight). The weight is what
// makes reservoirs mergeable: a reservoir {R, w} represents w input tuples,
// and two independent reservoirs {R1,w1}, {R2,w2} over disjoint inputs can
// be combined into a reservoir {Rm, w1+w2} that is distributed as if the
// union of the original inputs had been sampled directly — without touching
// the original data. This property (Chao [7], mergeable summaries [1]) is
// the mechanism behind LAQy's lazy Δ-samples.
//
// Sampled tuples are stored in row-major flat []int64 buffers with a fixed
// per-sample schema (the QCS and QVS columns), mirroring the paper's design
// of decoupling reservoir storage from the admission-control state.
package sample

import (
	"fmt"
	"math"
	"sort"

	"laqy/internal/rng"
)

// Schema lists the column names captured by a sample, QCS columns first.
// The tuple width equals len(Schema).
type Schema []string

// Index returns the position of the named column, or -1.
func (s Schema) Index(name string) int {
	for i, n := range s {
		if n == name {
			return i
		}
	}
	return -1
}

// Equal reports whether two schemas list the same columns in the same order.
func (s Schema) Equal(o Schema) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Reservoir is a uniform fixed-capacity sample of a tuple stream.
//
// The admission-control state (weight, capacity, RNG) is small and hot; the
// tuple storage is a flat buffer reached through a slice header,
// reproducing the paper's pointer-decoupled layout (§6.3). A stratum that
// admits owns its buffer; in a Stratified the buffer is the stratum's range
// of the sample's one tuple slab.
type Reservoir struct {
	k      int          // capacity in tuples
	width  int          // ints per tuple
	weight float64      // number of tuples considered (importance weight)
	data   []int64      // row-major tuple storage, len = min(n, k) * width
	gen    rng.Lehmer64 // held by value, in the header

	// Algorithm L skip-ahead state (Li 1994) of admission
	// (considerRowColumns). After the reservoir saturates, instead of one
	// RNG draw per considered tuple (Algorithm R's k/n coin), the sampler
	// draws the geometric-like gap to the next admitted tuple directly:
	// O(k·log(n/k)) draws total for an n-tuple stream instead of O(n). lW
	// is L's evolving threshold, lSkip the number of upcoming tuples to
	// pass over untouched, lValid whether the state reflects the current
	// stream. L starts only on a reservoir that holds its whole stream (k
	// tuples of weight k); one that represents more — after a merge, a
	// weighted step, a Filter or a Restore — admits each further
	// row by A-Chao's weighted step at weight 1 instead (considerRowColumns).
	lW     float64
	lSkip  int64
	lValid bool

	// rngDraws counts generator calls made by admission control, the
	// quantity the paper's §6.2 identifies as the sampling bottleneck.
	// Exposed via Builder.RNGDraws for the draws-per-tuple benchmarks.
	rngDraws int64
}

// NewReservoir creates an empty reservoir with capacity k for tuples of the
// given width, drawing randomness from gen. gen must not be shared across
// concurrently used reservoirs.
func NewReservoir(k, width int, gen *rng.Lehmer64) *Reservoir {
	r := newReservoir(k, width, *gen)
	return &r
}

// newReservoir is NewReservoir taking the generator and returning the
// reservoir by value, for a sample that keeps its strata in one slice.
func newReservoir(k, width int, gen rng.Lehmer64) Reservoir {
	if k <= 0 {
		// invariant: capacities are validated at the API boundary (core.validate, store load)
		panic(fmt.Sprintf("sample: reservoir capacity %d", k))
	}
	if width <= 0 {
		// invariant: widths derive from non-empty capture schemas
		panic(fmt.Sprintf("sample: tuple width %d", width))
	}
	return Reservoir{k: k, width: width, gen: gen}
}

// K returns the reservoir capacity.
func (r *Reservoir) K() int { return r.k }

// Width returns the tuple width.
func (r *Reservoir) Width() int { return r.width }

// Weight returns the total importance weight of the input the reservoir
// represents. For a reservoir fed tuple-by-tuple this is the number of
// considered tuples; after merges it is the sum of the merged weights.
func (r *Reservoir) Weight() float64 { return r.weight }

// Len returns the number of tuples currently stored.
func (r *Reservoir) Len() int { return len(r.data) / r.width }

// Full reports whether the reservoir has reached capacity, i.e. admission
// has entered the probabilistic regime.
func (r *Reservoir) Full() bool { return r.Len() == r.k }

// Tuple returns the i-th stored tuple as a subslice of the storage buffer.
// The returned slice aliases internal storage and must not be retained
// across admissions.
func (r *Reservoir) Tuple(i int) []int64 {
	return r.data[i*r.width : (i+1)*r.width]
}

// Tuples returns all stored tuples, row-major; it aliases internal storage
// under the same terms as Tuple.
func (r *Reservoir) Tuples() []int64 { return r.data }

// u01 draws a uniform in (0, 1], guarding the log() calls of Algorithm L
// against the zero sample, and counts the draw.
func (r *Reservoir) u01() float64 {
	r.rngDraws++
	u := r.gen.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return u
}

// initSkipState starts (or restarts) Algorithm L's schedule: the threshold
// W is a fresh max-of-k uniform draw and the first gap is drawn from it.
func (r *Reservoir) initSkipState() {
	r.lW = math.Exp(math.Log(r.u01()) / float64(r.k))
	r.lSkip = r.drawGap()
	r.lValid = true
}

// drawGap samples the number of tuples to skip before the next admission:
// floor(log(u) / log(1-W)), the geometric-like jump of Algorithm L.
func (r *Reservoir) drawGap() int64 {
	denom := math.Log(1 - r.lW)
	if !(denom < 0) {
		// W underflowed to 0 (astronomically long stream): log(1-W) == 0
		// and no further admission would ever occur; saturate the skip.
		return math.MaxInt64
	}
	g := math.Floor(math.Log(r.u01()) / denom)
	if !(g < float64(math.MaxInt64)) {
		return math.MaxInt64
	}
	return int64(g)
}

// admitAdvance updates Algorithm L's state after an admission: the
// threshold decays by an exp(log(u)/k) factor and the next gap is drawn.
func (r *Reservoir) admitAdvance() {
	r.lW *= math.Exp(math.Log(r.u01()) / float64(r.k))
	r.lSkip = r.drawGap()
}

// considerRowColumns offers row i of a column-major batch (cols[c][i] is
// column c) to the reservoir: the admission step behind
// Builder.ConsiderColumns. Until saturation the row is copied verbatim;
// afterwards Algorithm L's skip counter passes over rows with a decrement —
// no RNG draw, no copy — and only admitted rows are materialized.
//
// L's schedule is valid only for the stream the reservoir saw row by row.
// A full reservoir without one starts L when it holds its whole stream
// (weight k before this row). One that represents more rows than it holds
// cannot: a fresh L threshold is the maximum of k uniforms, right for a
// k-row stream and far too high for a w-row one, which would then admit
// almost every following row. It admits the row by A-Chao's step at weight
// 1 — with probability k/w, into a uniform slot — the rule merges use.
//
//laqy:hot per-row skip-ahead admission on the sampling path
func (r *Reservoir) considerRowColumns(cols [][]int64, i int) {
	if n := len(r.data); n < r.k*r.width {
		r.weight++
		if cap(r.data)-n < r.width {
			r.growFill()
		}
		r.data = r.data[:n+r.width]
		for c := 0; c < r.width; c++ { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
			r.data[n+c] = cols[c][i]
		}
		return
	}
	if !r.lValid {
		if r.weight != float64(r.k) {
			if slot := r.chaoSlot(1); slot >= 0 {
				r.storeRow(slot, cols, i)
			}
			return
		}
		r.initSkipState()
	}
	r.weight++
	if r.lSkip > 0 {
		r.lSkip--
		return
	}
	r.rngDraws++
	r.storeRow(r.gen.Intn(r.k), cols, i)
	r.admitAdvance()
}

// storeRow overwrites stored tuple slot with row i of a column-major batch.
func (r *Reservoir) storeRow(slot int, cols [][]int64, i int) {
	dst := r.data[slot*r.width : (slot+1)*r.width]
	for c := range dst { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
		dst[c] = cols[c][i]
	}
}

// fillChunkTuples is the first allocation of a stratum filled row by row
// (considerRowColumns): small, because a stratified sample over a sparse key
// holds thousands of strata of a few tuples each — default k = 1024 times
// ~2 400 date strata per worker and segment would be hundreds of MB if each
// reserved k tuples up front.
const fillChunkTuples = 8

// growFill makes room for the next tuple of a filling reservoir: whole
// tuples, doubling from fillChunkTuples, capped at k — one allocation per
// doubling of the stratum, not one per doubling of every int64 appended.
func (r *Reservoir) growFill() {
	nd := make([]int64, len(r.data), min(max(2*r.Len(), fillChunkTuples), r.k)*r.width)
	copy(nd, r.data)
	r.data = nd
}

// considerWeighted offers a tuple carrying an importance weight w, using
// A-Chao weighted reservoir admission: the tuple is admitted with
// probability k*w/W where W is the running weight sum. This is the
// "weighted reservoir sampling" primitive of the paper's Section 5.1.
//
//laqy:hot per-tuple admission during merges
func (r *Reservoir) considerWeighted(tuple []int64, w float64) {
	if len(r.data) < r.k*r.width {
		r.weight += w
		r.data = append(r.data, tuple...)
		return
	}
	if slot := r.chaoSlot(w); slot >= 0 {
		copy(r.data[slot*r.width:], tuple)
	}
}

// chaoSlot is A-Chao's step for an item of weight w offered to a full
// reservoir: it adds w to the weight and returns the slot the item replaces,
// or -1 if it is not admitted. A weighted step changes the stream a skip gap
// was drawn for, so it drops Algorithm L's schedule.
func (r *Reservoir) chaoSlot(w float64) int {
	r.weight += w
	r.lValid = false
	if p := float64(r.k) * w / r.weight; p < 1 {
		r.rngDraws++
		if r.gen.Float64() >= p {
			return -1
		}
	}
	r.rngDraws++
	return r.gen.Intn(r.k)
}

// TupleSelector is a compiled tightening predicate (expr.TupleFilter, which
// this package cannot import): SelectTuples appends to dst the ascending
// indices of the width-wide tuples of row-major data it keeps.
type TupleSelector interface {
	SelectTuples(data []int64, width int, dst []int32) []int32
}

// Select appends to dst the indices of the stored tuples keep accepts and
// returns them with the weight they represent — the paper's conditional
// transition to stricter predicates (§5.2.1) without the copy: the survivors
// are a uniform sample of the qualifying subpopulation, and the represented
// weight is rescaled by the observed qualifying fraction (an estimate, exact
// only in expectation).
//
//laqy:hot tightening of every reuse hit
func (r *Reservoir) Select(keep TupleSelector, dst []int32) ([]int32, float64) {
	base := len(dst)
	dst = keep.SelectTuples(r.data, r.width, dst)
	n := r.Len()
	if n == 0 {
		return dst, 0
	}
	return dst, r.weight * float64(len(dst)-base) / float64(n)
}

// Filter returns a new reservoir holding only the tuples Select keeps, at
// the weight it reports: the materialized form of a tightening, for callers
// that go on to merge or store the narrower sample.
func (r *Reservoir) Filter(keep TupleSelector) *Reservoir {
	out := &Reservoir{k: r.k, width: r.width, gen: r.gen.Substream(0xF1)}
	// keep's verdicts size the one exact allocation.
	var buf [64]int32
	kept, weight := r.Select(keep, buf[:0])
	out.weight = weight
	if len(kept) > 0 {
		out.data = make([]int64, 0, len(kept)*r.width)
		for _, i := range kept {
			out.data = append(out.data, r.Tuple(int(i))...)
		}
	}
	return out
}

// Merge combines two reservoirs over disjoint inputs into a reservoir
// distributed as a direct sample of the combined input, implementing the
// paper's Algorithm 2. Inputs may be nil (the "only single reservoir
// defined" case): Merge then returns the other. The result's weight is the
// sum of the input weights. Merge reads its inputs and writes neither: the
// result's tuples are fresh storage, written by mergeInto, the per-stratum
// writer of MergeStratified.
func Merge(r1, r2 *Reservoir, gen *rng.Lehmer64) *Reservoir {
	if r1 == nil {
		return r2
	}
	if r2 == nil {
		return r1
	}
	if r1.width != r2.width {
		// invariant: MergeStratified checks schema equality before merging reservoirs
		panic(fmt.Sprintf("sample: merging width %d with width %d", r1.width, r2.width))
	}
	out := new(Reservoir)
	mergeInto(out, make([]int64, 0, mergedLen(r1, r2)*r1.width), r1, r2, gen)
	return out
}

// mergedLen is the number of tuples the merge of r1 and r2 holds (either may
// be nil): each case of Algorithm 2 fixes it from the inputs' lengths and
// capacities, so the writer sizes every stratum before it merges any.
func mergedLen(r1, r2 *Reservoir) int {
	switch {
	case r1 == nil:
		return r2.Len()
	case r2 == nil:
		return r1.Len()
	case !r1.Full() || !r2.Full():
		acc, streamed := notFullSides(r1, r2)
		return min(acc.Len()+streamed.Len(), acc.k)
	}
	return min(r1.k, r2.k)
}

// mergeInto writes the merge of r1 and r2 into out, its tuples into data:
// an empty slice over fresh storage with room for exactly mergedLen(r1, r2)
// tuples. It reads r1 and r2 and writes neither.
//
// Case selection follows the paper (a nil input — DefinedReservoir — is
// the caller's: Merge returns the other input, the stratified writer
// copies it):
//   - a not-full input holds its entire subpopulation verbatim, so its
//     tuples are streamed into the other reservoir's admission control
//     (ReservoirSampling);
//   - two full reservoirs of equal capacity merge slot-by-slot, each slot
//     taken from R1 with probability w1/(w1+w2) (ProportionalSampling);
//   - two full reservoirs of different capacities merge by weighted
//     reservoir sampling where each tuple of Ri carries importance wi/ki
//     (ScaledPropSampling).
func mergeInto(out *Reservoir, data []int64, r1, r2 *Reservoir, gen *rng.Lehmer64) {
	switch {
	case !r1.Full() || !r2.Full():
		mergeNotFull(out, data, r1, r2)
	case r1.k == r2.k:
		mergeProportional(out, data, r1, r2, gen)
	default:
		mergeScaledProportional(out, data, r1, r2, gen)
	}
}

// notFullSides orders the inputs of the not-full case: the accumulator, into
// whose admission control the other's tuples stream, is a full side, or of
// two partial sides the larger capacity.
func notFullSides(r1, r2 *Reservoir) (acc, streamed *Reservoir) {
	acc, streamed = r1, r2
	if !r1.Full() {
		acc, streamed = r2, r1
	}
	if !acc.Full() && acc.k < streamed.k {
		acc, streamed = streamed, acc
	}
	return acc, streamed
}

// mergeNotFull handles the case where at least one reservoir is not full.
// The not-full reservoir's tuples are streamed into a copy of the other
// reservoir's admission control carrying their per-tuple importance weight
// (weight/len, which is 1 for a reservoir that never entered the
// probabilistic regime but may differ after a Filter), continuing weighted
// reservoir sampling on the combined stream.
func mergeNotFull(out *Reservoir, data []int64, r1, r2 *Reservoir) {
	acc, streamed := notFullSides(r1, r2)
	*out = *acc
	out.data = append(data, acc.data...)
	n := streamed.Len()
	if n == 0 {
		out.weight += streamed.weight
		return
	}
	perTuple := streamed.weight / float64(n)
	for i := 0; i < n; i++ {
		out.considerWeighted(streamed.Tuple(i), perTuple)
	}
}

// mergeProportional merges two full, equal-capacity reservoirs by the
// per-slot proportional rule: slot i of the result is slot i of r1 with
// probability w1/(w1+w2), else slot i of r2. Because each slot of a full
// reservoir is marginally a uniform draw from its subpopulation, the result
// is marginally a uniform draw from the weighted union.
func mergeProportional(out *Reservoir, data []int64, r1, r2 *Reservoir, gen *rng.Lehmer64) {
	w1, w2 := r1.weight, r2.weight
	p1 := w1 / (w1 + w2)
	*out = *r1
	out.data = data[:len(r1.data)]
	for i := 0; i < out.k; i++ {
		src := r1
		if gen.Float64() >= p1 {
			src = r2
		}
		copy(out.data[i*out.width:], src.Tuple(i))
	}
	out.weight = w1 + w2
	out.gen = *gen
	out.lValid = false // the merged stream has no skip schedule
}

// mergeScaledProportional merges two full reservoirs of different
// capacities using weighted reservoir sampling (Efraimidis–Spirakis
// priority sampling): each tuple of Ri carries importance weight wi/ki (the
// number of input tuples it represents), and the min(k1,k2) highest-priority
// tuples form the merged reservoir. The scaled weight factor wi/ki is the
// paper's k_scaled/w bias adjustment.
func mergeScaledProportional(out *Reservoir, data []int64, r1, r2 *Reservoir, gen *rng.Lehmer64) {
	type cand struct {
		idx  int // tuple idx of r1, or idx − len1 of r2
		prio float64
	}
	len1 := r1.Len()
	cands := make([]cand, 0, len1+r2.Len())
	for _, r := range [2]*Reservoir{r1, r2} {
		perTuple := r.weight / float64(r.Len())
		for i := 0; i < r.Len(); i++ {
			u := gen.Float64()
			if u == 0 {
				u = math.SmallestNonzeroFloat64
			}
			// E–S key: u^(1/w); larger keys win.
			cands = append(cands, cand{idx: len(cands), prio: math.Pow(u, 1/perTuple)})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].prio > cands[j].prio })
	kOut := min(r1.k, r2.k) // both are full, so cands holds k1 + k2 tuples
	*out = Reservoir{k: kOut, width: r1.width, weight: r1.weight + r2.weight, gen: *gen, data: data}
	for _, c := range cands[:kOut] {
		if c.idx < len1 {
			out.data = append(out.data, r1.Tuple(c.idx)...)
		} else {
			out.data = append(out.data, r2.Tuple(c.idx-len1)...)
		}
	}
}
