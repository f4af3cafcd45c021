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
// and the key words, and the reservoirs' admission state lies in one slice
// of headers, each pointing at its own tuple storage (the decoupled layout
// of §6.3). A Stratified is not safe for concurrent use while it admits;
// parallel builds use one instance per worker and merge.
//
// A sample the writer produced (MergeStratified, Seal) is packed: ids are
// key order, so the header slice is in key order, and every stratum's
// tuples lie in one tuple slab, stratum after stratum, each with no spare
// capacity. A packed sample is its own storage — the writer copies every
// stratum it keeps — and a hit streams through its two slabs. Seal
// publishes a sample: the store keeps only sealed samples, and admission
// into one panics, so readers share it without copies or locks.
type Stratified struct {
	schema   Schema
	qcsWidth int
	k        int
	index    KeyIndex
	res      []Reservoir // by stratum id
	gen      *rng.Lehmer64
	weight   float64 // total tuples considered across all strata

	// packed: the writer laid the strata out and nothing was admitted
	// since; bytes is then SizeBytes, recorded by the writer.
	packed bool
	bytes  int64
	sealed bool
	// fork is nonzero on a Fork: a merge reads each stratum's generator as
	// the stratum's Substream(fork).
	fork uint64

	// sorted caches the stratum ids in key order of a sample that is not
	// packed, so the ordered walk sorts once per sample, not once per
	// query. Built on first use (atomically: concurrent readers may race
	// to build it), dropped wherever a stratum is inserted.
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

// admit readies s for a write to its strata: a packed sample unpacks, since
// admission grows strata out of the slab and inserts keys out of order.
func (s *Stratified) admit() {
	if s.sealed {
		// invariant: published samples are never written; a merge writes
		// a new sample instead (MergeStratified).
		panic("sample: admission into a sealed sample")
	}
	s.packed = false
}

// add installs r as the reservoir of a key the index does not hold yet.
func (s *Stratified) add(key *StratumKey, r Reservoir) {
	s.index.Insert(key)
	s.res = append(s.res, r)
	s.sorted.Store(nil)
}

// insert allocates the reservoir of a stratum seen for the first time. Its
// generator is the sample's substream numbered by the stratum's id.
func (s *Stratified) insert(key *StratumKey) *Reservoir {
	s.add(key, newReservoir(s.k, len(s.schema), s.gen.Substream(uint64(len(s.res)))))
	return &s.res[len(s.res)-1]
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
	s.admit()
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
				res = &s.res[id]
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
	for i := range s.res {
		total += s.res[i].rngDraws
	}
	return total
}

// SizeBytes estimates the sample's memory footprint: 8 bytes per stored
// int64 plus 64 per stratum for its admission state. The writer records it
// for a packed sample; any other is summed over its strata in id order —
// no key sort.
func (s *Stratified) SizeBytes() int64 {
	if s.packed {
		return s.bytes
	}
	var bytes int64
	for i := range s.res {
		bytes += int64(len(s.res[i].data))*8 + 64
	}
	return bytes
}

// Stratum returns the reservoir for key, or nil.
func (s *Stratified) Stratum(key StratumKey) *Reservoir {
	if id := s.index.Find(&key); id >= 0 {
		return &s.res[id]
	}
	return nil
}

// Keys returns all stratum keys in deterministic (sorted) order.
func (s *Stratified) Keys() []StratumKey {
	out := make([]StratumKey, len(s.res))
	for pos := range out {
		out[pos] = s.index.Key(s.id(pos))
	}
	return out
}

// id returns the id of the stratum at position pos in key order: pos
// itself in a packed sample.
func (s *Stratified) id(pos int) int32 {
	if s.packed {
		return int32(pos)
	}
	return s.sortedIDs()[pos]
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
	for pos := range s.res {
		fn(s.At(pos))
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
	id := s.id(pos)
	return s.index.Key(id), &s.res[id]
}

// Filter returns a new stratified sample whose reservoirs hold only tuples
// accepted by keep, with weights rescaled per stratum (predicate
// tightening, §5.2.1). Strata whose reservoirs become empty are dropped.
func (s *Stratified) Filter(keep TupleSelector) *Stratified {
	out := NewStratified(s.schema, s.qcsWidth, s.k, s.gen.Split(0xFE))
	for id := range s.res {
		f := s.res[id].Filter(keep)
		if f.Len() > 0 {
			key := s.index.Key(int32(id))
			out.add(&key, *f)
			out.weight += f.Weight()
		}
	}
	return out
}

// Fork returns s as a merge input that draws as a copy of s with
// generators of its own would: the sample's generator is s's Split(0xC1)
// and each stratum's is its own Substream(0x5C), the streams a copy of a
// stored sample has always been given, so merging a fork writes the bits
// that merging such a copy wrote. A fork shares s's strata; it is only
// read — by MergeStratified and Seal, which copy what they keep — and
// admission into it panics.
func (s *Stratified) Fork() *Stratified {
	f := &Stratified{
		schema:   s.schema,
		qcsWidth: s.qcsWidth,
		k:        s.k,
		index:    s.index,
		res:      s.res,
		gen:      s.gen.Split(0xC1),
		weight:   s.weight,
		packed:   s.packed,
		bytes:    s.bytes,
		sealed:   true,
		fork:     0x5C,
	}
	f.sorted.Store(s.sorted.Load())
	return f
}

// stratum returns the reservoir at id, nil for -1 (on any s, nil included).
func (s *Stratified) stratum(id int32) *Reservoir {
	if id < 0 {
		return nil
	}
	return &s.res[id]
}

// read returns s's stratum r as a merge reads it: r itself, or on a fork a
// header over the same tuples that draws from the fork's substream,
// written to buf.
func (s *Stratified) read(r, buf *Reservoir) *Reservoir {
	if s.fork == 0 {
		return r
	}
	*buf = Reservoir{k: r.k, width: r.width, weight: r.weight, data: r.data, gen: r.gen.Substream(s.fork)}
	return buf
}

// copyInto writes into out a copy of s's stratum r as a merge reads it,
// its tuples into data: the case of Algorithm 2 where only r is defined.
func (s *Stratified) copyInto(out *Reservoir, data []int64, r *Reservoir) {
	*out = *s.read(r, out) // a fork's header is written to out itself
	out.data = append(data, r.data...)
}

// Seal publishes s: admission into it panics from then on, so readers
// share it with no copy and no lock. A packed sample seals as it is; any
// other — one worker's build, a loaded file, a fork — is first rewritten in
// place by the writer's one-input form, packed in storage of its own.
// Sealing a sealed sample does nothing.
func (s *Stratified) Seal() {
	if s.sealed && s.fork == 0 {
		return
	}
	if !s.packed || s.fork != 0 {
		p := write(s, nil, nil, 1)
		s.index, s.res, s.gen, s.bytes, s.fork = p.index, p.res, p.gen, p.bytes, 0
		s.packed = true
		s.sorted.Store(nil)
	}
	s.sealed = true
}

// MergeStratified combines two stratified samples over disjoint inputs into
// one distributed as a direct stratified sample of the combined input — the
// paper's Algorithm 3: a group-by over the union of strata whose
// aggregation function is the reservoir merge of Algorithm 2. It writes
// the result into fresh storage (write), packed, on up to workers
// goroutines, and reads its inputs without writing them. A nil input
// returns the other as it is.
//
// Both samples must share the schema and QCS width. Per-stratum capacities
// may differ (Algorithm 2 handles the scaled case). MergeStratified also
// serves the engine's exchange step: per-worker partial samples merge into
// the final sample the same way Δ-samples merge with stored ones.
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
	// The sample with more strata leads: its capacity and generator are the
	// result's, and its reservoir is the first input of every shared
	// stratum's merge.
	if len(b.res) > len(a.res) {
		a, b = b, a
	}
	return write(a, b, gen, workers), nil
}

// write is the one writer of packed samples. It lays the union of a's and
// b's strata out in key order, sizes every stratum (mergedLen), allocates
// the header slab and the tuple slab once, and then fills them in chunks
// of strata (forChunks) on up to workers goroutines, each chunk writing
// only its own ranges of both slabs. A stratum both hold merges by
// Algorithm 2, a's reservoir first, drawing from gen's substream numbered
// by key.splitIndex() — a pure function of the key and of gen's state,
// which no merge advances — so the result is the same however many workers
// ran; a stratum one holds is copied. The result takes a's capacity and
// generator. b nil is the one-input form: a packed copy of a (Seal). It
// reads a and b and writes neither.
func write(a, b *Stratified, gen *rng.Lehmer64, workers int) *Stratified {
	type stratum struct {
		key  StratumKey
		a, b int32 // ids in a and b, -1 where absent
		off  int   // offset of its tuples in the tuple slab
	}
	na, nb, k, weight := len(a.res), 0, a.k, a.weight
	if b != nil {
		nb, k, weight = len(b.res), max(k, b.k), weight+b.weight
	}
	plan := make([]stratum, 0, na+nb)
	for i, j := 0, 0; i < na || j < nb; {
		p, c := stratum{a: -1, b: -1}, 1 // c: the next key is a's (< 0), both's (0) or b's
		if j == nb {
			c = -1
		} else if i < na {
			c = a.index.Key(a.id(i)).Compare(b.index.Key(b.id(j)))
		}
		if c <= 0 {
			p.a = a.id(i)
			p.key = a.index.Key(p.a)
			i++
		}
		if c >= 0 {
			p.b = b.id(j)
			p.key = b.index.Key(p.b)
			j++
		}
		plan = append(plan, p)
	}
	width, total := len(a.schema), 0
	for pos := range plan {
		plan[pos].off = total
		total += mergedLen(a.stratum(plan[pos].a), b.stratum(plan[pos].b)) * width
	}
	out := &Stratified{
		schema:   a.schema,
		qcsWidth: a.qcsWidth,
		k:        a.k,
		index:    newKeyIndex(a.qcsWidth, len(plan)),
		res:      make([]Reservoir, len(plan)),
		gen:      a.gen,
		weight:   weight,
		packed:   true,
		bytes:    int64(total)*8 + int64(len(plan))*64,
	}
	for pos := range plan {
		out.index.Insert(&plan[pos].key)
	}
	tuples := make([]int64, total)
	forChunks(len(plan), chunkStrata(k), workers, func() func(lo, hi int) {
		return func(lo, hi int) {
			var bufA, bufB Reservoir
			for pos := lo; pos < hi; pos++ {
				p := &plan[pos]
				end := total
				if pos+1 < len(plan) {
					end = plan[pos+1].off
				}
				data := tuples[p.off:p.off:end]
				switch r1, r2 := a.stratum(p.a), b.stratum(p.b); {
				case r2 == nil:
					a.copyInto(&out.res[pos], data, r1)
				case r1 == nil:
					b.copyInto(&out.res[pos], data, r2)
				default:
					g := gen.Substream(p.key.splitIndex()) // gen.Split's stream, on the stack
					mergeInto(&out.res[pos], data, a.read(r1, &bufA), b.read(r2, &bufB), &g)
				}
			}
		}
	})
	return out
}
