package sample

import (
	"fmt"
	"sync/atomic"

	"laqy/internal/rng"
)

// MaxQCS is the maximum number of stratification columns. The paper's
// evaluation uses up to 3 (|QCS| up to 4950 strata); Microsoft's production
// study [18] reports 90% of column sets have ≤6 columns. Four keeps the key
// comparable and register-friendly.
const MaxQCS = 4

// StratumKey identifies a stratum: the tuple of QCS column values. Unused
// trailing slots are zero; the per-sample QCS width disambiguates.
type StratumKey [MaxQCS]int64

// splitIndex hashes the key into an RNG-substream index. Merges split the
// merge generator per stratum by this value — a function of the key, not
// of map iteration order — so an N-way merge is a deterministic function
// of its inputs and seed. That determinism is what lets a coordinator
// check remote partial reservoirs byte-identical against local builds.
func (k StratumKey) splitIndex() uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range k {
		h ^= uint64(v)
		h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
		h = (h ^ (h >> 27)) * 0x94D049BB133111EB
		h ^= h >> 31
	}
	return h
}

// Stratified is a stratified reservoir sample: one reservoir per distinct
// QCS value combination, implemented — as in the paper's engine
// integration (§6.2) — as a group-by whose aggregation function is
// reservoir sampling.
//
// A KeyIndex gives each stratum key a dense id, and res holds the stratum's
// reservoir at that id: the admission table a row probes is a slot array
// and the key words (the decoupled layout of §6.3), and the reservoir's
// admission state and tuple storage lie behind one pointer. A Stratified is
// not safe for concurrent use; parallel builds use one instance per worker
// and merge.
type Stratified struct {
	schema   Schema
	qcsWidth int
	k        int
	index    KeyIndex
	res      []*Reservoir // by stratum id
	gen      *rng.Lehmer64
	weight   float64 // total tuples considered across all strata

	// sorted caches the stratum ids in key order, so the ordered walk behind
	// every answer sorts once per sample, not once per query. Built on first
	// use (atomically: readers of a published sample may race to build it),
	// dropped wherever a stratum is inserted, never written once stored.
	sorted atomic.Pointer[[]int32]
}

// NewStratified creates an empty stratified sample capturing the columns of
// schema, of which the first qcsWidth are the stratification (QCS) columns;
// k is the per-stratum reservoir capacity. A qcsWidth of zero degenerates
// to a single stratum — grouping without a key, i.e. a simple reservoir
// sample, exactly the degenerate case the paper notes for Algorithm 3.
func NewStratified(schema Schema, qcsWidth, k int, gen *rng.Lehmer64) *Stratified {
	if qcsWidth < 0 || qcsWidth > MaxQCS || qcsWidth > len(schema) {
		// invariant: callers (engine, store) validate QCS width against
		// the schema before constructing samples.
		panic(fmt.Sprintf("sample: qcsWidth %d with schema of %d columns", qcsWidth, len(schema)))
	}
	return &Stratified{
		schema:   schema,
		qcsWidth: qcsWidth,
		k:        k,
		index:    NewKeyIndex(qcsWidth),
		gen:      gen,
	}
}

// Schema returns the captured columns, QCS columns first.
func (s *Stratified) Schema() Schema { return s.schema }

// QCSWidth returns the number of stratification columns.
func (s *Stratified) QCSWidth() int { return s.qcsWidth }

// K returns the per-stratum reservoir capacity.
func (s *Stratified) K() int { return s.k }

// NumStrata returns the number of materialized strata.
func (s *Stratified) NumStrata() int { return len(s.res) }

// TotalWeight returns the total number of tuples considered (the
// represented input size).
func (s *Stratified) TotalWeight() float64 { return s.weight }

// add installs r as the reservoir of a key the index does not hold yet.
func (s *Stratified) add(key *StratumKey, r *Reservoir) {
	s.index.Insert(key)
	s.res = append(s.res, r)
	s.sorted.Store(nil)
}

// insert allocates the reservoir of a stratum seen for the first time. Its
// generator is the sample's substream numbered by the stratum's id.
func (s *Stratified) insert(key *StratumKey) *Reservoir {
	res := newReservoir(s.k, len(s.schema), s.gen.Substream(uint64(len(s.res))))
	s.add(key, res)
	return res
}

// ConsiderColumns offers n tuples laid out column-major (cols[c][i] is
// column c of tuple i, schema order with QCS columns first) to the sample.
// It is the one admission entry point: scan batches, streamed events (a
// batch of one) and the Figure 3/4 harness all arrive here. Each row's
// stratum is located — or allocated on first sight, the constant
// per-stratum cost visible in the paper's Figure 3 — and the row goes
// through that stratum's Algorithm L admission. The index probe is paid once
// per run of equal stratum keys, not once per row: on clustered inputs
// (date-sorted facts) whole runs resolve to one reservoir pointer. Once a
// reservoir saturates, its skip counter turns the per-row cost into a
// decrement, tested here in the row loop — no call, no RNG draw, no staging
// copy. Shuffled inputs degrade to one probe per row.
//
//laqy:hot batch admission on the sampling path
func (s *Stratified) ConsiderColumns(cols [][]int64, n int) {
	if len(cols) != len(s.schema) {
		// invariant: sinks gather exactly the sample's schema width
		panic(fmt.Sprintf("sample: %d columns, schema has %d", len(cols), len(s.schema)))
	}
	var key StratumKey
	var res *Reservoir
	for i := 0; i < n; i++ { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
		same := res != nil
		for c := 0; c < s.qcsWidth; c++ {
			v := cols[c][i]
			same = same && v == key[c]
			key[c] = v
		}
		if !same {
			if id := s.index.Find(&key); id >= 0 {
				res = s.res[id]
			} else {
				res = s.insert(&key)
			}
		}
		if res.lValid && res.lSkip > 0 {
			res.weight++
			res.lSkip--
			continue
		}
		res.considerRowColumns(cols, i)
	}
	s.weight += float64(n)
}

// RNGDraws returns the total admission-control generator calls across all
// strata (see Reservoir.RNGDraws).
func (s *Stratified) RNGDraws() int64 {
	var total int64
	for _, r := range s.res {
		total += r.rngDraws
	}
	return total
}

// SizeBytes estimates the sample's memory footprint: tuple storage plus
// per-stratum admission state. The sum is commutative, so the strata are
// visited in id order — no key sort.
func (s *Stratified) SizeBytes() int64 {
	var bytes int64
	for _, r := range s.res {
		bytes += int64(len(r.data))*8 + 64
	}
	return bytes
}

// Stratum returns the reservoir for key, or nil.
func (s *Stratified) Stratum(key StratumKey) *Reservoir {
	if id := s.index.Find(&key); id >= 0 {
		return s.res[id]
	}
	return nil
}

// Keys returns all stratum keys in deterministic (sorted) order.
func (s *Stratified) Keys() []StratumKey {
	ids := s.sortedIDs()
	out := make([]StratumKey, len(ids))
	for i, id := range ids {
		out[i] = s.index.Key(id)
	}
	return out
}

// sortedIDs returns the cached stratum ids in key order (read-only), sorting
// anew when a stratum was inserted since the last walk.
func (s *Stratified) sortedIDs() []int32 {
	if p := s.sorted.Load(); p != nil {
		return *p
	}
	ids := s.index.SortedIDs()
	s.sorted.Store(&ids)
	return ids
}

// ForEach visits every stratum in deterministic (key) order.
func (s *Stratified) ForEach(fn func(key StratumKey, r *Reservoir)) {
	for _, id := range s.sortedIDs() {
		fn(s.index.Key(id), s.res[id])
	}
}

// Walk spreads the positions [0, NumStrata()) of the strata in key order
// (the order ForEach visits; At reads them) over up to workers goroutines,
// in chunks of whole strata (forChunks): worker is called once per
// goroutine and returns that goroutine's chunk body. Chunks run
// concurrently and in no fixed order, so a body may write only what
// belongs to its own positions; a walk of one chunk, or with one worker,
// is one body call over every position, on the caller's goroutine.
func (s *Stratified) Walk(workers int, worker func() func(lo, hi int)) {
	forChunks(len(s.res), chunkStrata(s.k), workers, worker)
}

// At returns the key and reservoir of the stratum at position pos in key
// order.
func (s *Stratified) At(pos int) (StratumKey, *Reservoir) {
	id := s.sortedIDs()[pos]
	return s.index.Key(id), s.res[id]
}

// Filter returns a new stratified sample whose reservoirs hold only tuples
// accepted by keep, with weights rescaled per stratum (predicate
// tightening, §5.2.1). Strata whose reservoirs become empty are dropped.
func (s *Stratified) Filter(keep TupleSelector) *Stratified {
	out := NewStratified(s.schema, s.qcsWidth, s.k, s.gen.Split(0xFE))
	for id, r := range s.res {
		f := r.Filter(keep)
		if f.Len() > 0 {
			key := s.index.Key(int32(id))
			out.add(&key, f)
			out.weight += f.Weight()
		}
	}
	return out
}

// Clone returns an independent copy of s. Tuple storage is shared per stratum
// until written (Reservoir.Clone), and so is the immutable sorted-id cache.
func (s *Stratified) Clone() *Stratified {
	out := &Stratified{
		schema:   s.schema,
		qcsWidth: s.qcsWidth,
		k:        s.k,
		index:    s.index.Clone(),
		res:      make([]*Reservoir, len(s.res)),
		gen:      s.gen.Split(0xC1),
		weight:   s.weight,
	}
	for id, r := range s.res {
		out.res[id] = r.Clone()
	}
	out.sorted.Store(s.sorted.Load())
	return out
}

// MergeStratified combines two stratified samples over disjoint inputs into
// one distributed as a direct stratified sample of the combined input — the
// paper's Algorithm 3: a group-by over the union of strata whose
// aggregation function is the reservoir merge of Algorithm 2. The inputs
// are consumed.
//
// Both samples must share the schema and QCS width. Per-stratum capacities
// may differ (Algorithm 2 handles the scaled case). MergeStratified also
// serves the engine's exchange step: per-worker partial samples merge into
// the final sample the same way Δ-samples merge with stored ones.
//
// The strata both samples hold merge on up to workers goroutines, in
// chunks (forChunks); then the strata only one of them holds join the
// result serially, in source-id order, so stratum ids are the same however
// many workers ran. The result does not depend on the order the shared
// strata merge in: each merge touches only its own stratum's reservoirs and
// draws from gen's substream numbered by key.splitIndex(), a pure function
// of the key and of gen's state, which no merge advances.
func MergeStratified(a, b *Stratified, gen *rng.Lehmer64, workers int) (*Stratified, error) {
	if a == nil {
		return b, nil
	}
	if b == nil {
		return a, nil
	}
	if !a.schema.Equal(b.schema) {
		return nil, fmt.Errorf("sample: merging stratified samples with schemas %v and %v", a.schema, b.schema)
	}
	if a.qcsWidth != b.qcsWidth {
		return nil, fmt.Errorf("sample: merging QCS widths %d and %d", a.qcsWidth, b.qcsWidth)
	}
	// Accumulate into the sample with more strata: fewer inserts.
	dst, src := a, b
	if len(b.res) > len(a.res) {
		dst, src = b, a
	}
	// A shared stratum's source reservoir is cleared once merged, which
	// leaves the ones the destination lacks.
	forChunks(len(src.res), chunkStrata(max(a.k, b.k)), workers, func() func(lo, hi int) {
		return func(lo, hi int) {
			for id := lo; id < hi; id++ {
				key := src.index.Key(int32(id))
				if did := dst.index.Find(&key); did >= 0 {
					g := gen.Substream(key.splitIndex()) // gen.Split's stream, on the stack
					dst.res[did] = Merge(dst.res[did], src.res[id], &g)
					src.res[id] = nil
				}
			}
		}
	})
	for id, r := range src.res {
		if r != nil {
			key := src.index.Key(int32(id))
			dst.add(&key, r)
		}
	}
	dst.weight = a.weight + b.weight
	return dst, nil
}
