package sample

import (
	"fmt"

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

// strata is what a Builder and a Stratified both hold. A KeyIndex gives
// each stratum key a dense id, and res holds the stratum's reservoir at that
// id: the admission table a row probes is a slot array and the key words,
// and the reservoirs' admission state lies in one slice of headers, each
// pointing at its tuple storage (the decoupled layout of §6.3).
type strata struct {
	schema   Schema
	qcsWidth int
	k        int
	index    KeyIndex
	res      []Reservoir // by stratum id
	gen      *rng.Lehmer64
	weight   float64 // total tuples considered across all strata
}

// Schema returns the captured columns, QCS columns first.
func (s *strata) Schema() Schema { return s.schema }

// QCSWidth returns the number of stratification columns.
func (s *strata) QCSWidth() int { return s.qcsWidth }

// K returns the per-stratum reservoir capacity.
func (s *strata) K() int { return s.k }

// NumStrata returns the number of materialized strata.
func (s *strata) NumStrata() int { return len(s.res) }

// TotalWeight returns the total number of tuples considered (the
// represented input size).
func (s *strata) TotalWeight() float64 { return s.weight }

// Stratum returns the reservoir for key, or nil.
func (s *strata) Stratum(key StratumKey) *Reservoir {
	if id := s.index.Find(&key); id >= 0 {
		return &s.res[id]
	}
	return nil
}

// Filter returns a new builder whose reservoirs hold only tuples accepted
// by keep, with weights rescaled per stratum (predicate tightening,
// §5.2.1). Strata whose reservoirs become empty are dropped.
func (s *strata) Filter(keep TupleSelector) *Builder {
	out := NewBuilder(s.schema, s.qcsWidth, s.k, s.gen.Split(0xFE))
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

// Builder builds a stratified reservoir sample: one reservoir per distinct
// QCS value combination, implemented — as in the paper's engine
// integration (§6.2) — as a group-by whose aggregation function is
// reservoir sampling. It is the only thing that admits. A Builder is not
// safe for concurrent use; parallel builds use one per worker and merge
// them (MergeStratified), and Seal publishes one as a Stratified.
type Builder struct{ strata }

// NewBuilder creates an empty builder capturing the columns of schema, of
// which the first qcsWidth are the stratification (QCS) columns; k is the
// per-stratum reservoir capacity. A qcsWidth of zero degenerates to a
// single stratum — grouping without a key, i.e. a simple reservoir sample,
// exactly the degenerate case the paper notes for Algorithm 3.
func NewBuilder(schema Schema, qcsWidth, k int, gen *rng.Lehmer64) *Builder {
	if qcsWidth < 0 || qcsWidth > MaxQCS || qcsWidth > len(schema) {
		// invariant: callers (engine, store) validate QCS width against
		// the schema before constructing samples.
		panic(fmt.Sprintf("sample: qcsWidth %d with schema of %d columns", qcsWidth, len(schema)))
	}
	return &Builder{strata{
		schema:   schema,
		qcsWidth: qcsWidth,
		k:        k,
		index:    NewKeyIndex(qcsWidth),
		gen:      gen,
	}}
}

// add installs r as the reservoir of a key the index does not hold yet.
func (b *Builder) add(key *StratumKey, r Reservoir) {
	b.index.Insert(key)
	b.res = append(b.res, r)
}

// insert allocates the reservoir of a stratum seen for the first time. Its
// generator is the sample's substream numbered by the stratum's id.
func (b *Builder) insert(key *StratumKey) *Reservoir {
	b.add(key, newReservoir(b.k, len(b.schema), b.gen.Substream(uint64(len(b.res)))))
	return &b.res[len(b.res)-1]
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
func (b *Builder) ConsiderColumns(cols [][]int64, n int) {
	if len(cols) != len(b.schema) {
		// invariant: sinks gather exactly the sample's schema width
		panic(fmt.Sprintf("sample: %d columns, schema has %d", len(cols), len(b.schema)))
	}
	var key StratumKey
	var res *Reservoir
	for i := 0; i < n; i++ { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
		same := res != nil
		for c := 0; c < b.qcsWidth; c++ {
			v := cols[c][i]
			same = same && v == key[c]
			key[c] = v
		}
		if !same {
			if id := b.index.Find(&key); id >= 0 {
				res = &b.res[id]
			} else {
				res = b.insert(&key)
			}
		}
		if res.lValid && res.lSkip > 0 {
			res.weight++
			res.lSkip--
			continue
		}
		res.considerRowColumns(cols, i)
	}
	b.weight += float64(n)
}

// RNGDraws returns the total admission-control generator calls across all
// strata (see Reservoir.RNGDraws).
func (b *Builder) RNGDraws() int64 {
	var total int64
	for i := range b.res {
		total += b.res[i].rngDraws
	}
	return total
}

// Stratified is a published stratified sample, read-only: nothing admits
// into it, so readers share it with no copy and no lock. The writer
// (MergeStratified, Seal) is the only thing that makes one, and lays it out
// packed: ids are key order, so the header slice is in key order, and every
// stratum's tuples lie in one tuple slab, stratum after stratum, each with
// no spare capacity. A Stratified is its own storage — the writer copies
// every stratum it keeps — and a hit streams through its two slabs.
type Stratified struct {
	strata
	bytes int64 // SizeBytes, recorded by the writer
}

// SizeBytes estimates the sample's memory footprint: 8 bytes per stored
// int64 plus 64 per stratum for its admission state.
func (s *Stratified) SizeBytes() int64 { return s.bytes }

// Keys returns all stratum keys in deterministic (sorted) order.
func (s *Stratified) Keys() []StratumKey {
	out := make([]StratumKey, len(s.res))
	for pos := range out {
		out[pos] = s.index.Key(int32(pos))
	}
	return out
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
// goroutine and returns that goroutine's body, which runs chunk c over the
// positions Chunk(c) and returns nil. Chunks run concurrently and in no
// fixed order, so a body may write only what belongs to its own positions;
// a walk of one chunk, or with one worker, runs every chunk in order
// through one body on the caller's goroutine.
func (s *Stratified) Walk(workers int, worker func(p int) func(c int) error) {
	forChunks(len(s.res), chunkStrata(s.k), workers, worker)
}

// Chunk is the positions [lo, hi) chunk c of a Walk covers.
func (s *Stratified) Chunk(c int) (lo, hi int) {
	return chunkBounds(c, chunkStrata(s.k), len(s.res))
}

// At returns the key and reservoir of the stratum at position pos in key
// order.
func (s *Stratified) At(pos int) (StratumKey, *Reservoir) {
	return s.index.Key(int32(pos)), &s.res[pos]
}

// Part is a merge input: a *Builder, a *Stratified, or the fork of either.
// MergeStratified, MergeN and Seal read a part and never write it.
type Part interface {
	mergeInput() input
}

// input is a part as the writer reads it, small enough for the writer's
// chunk bodies to capture by value.
type input struct {
	*strata
	gen  *rng.Lehmer64 // the sample's generator as read: a fork's is its Split(0xC1)
	ids  []int32       // stratum ids in key order; nil where the ids are key order
	fork uint64        // nonzero: each stratum draws as its Substream(fork)
}

// mergeInput reads a builder in key order: one sort of its keys per write.
func (b *Builder) mergeInput() input {
	return input{strata: &b.strata, gen: b.gen, ids: b.index.SortedIDs()}
}

func (s *Stratified) mergeInput() input { return input{strata: &s.strata, gen: s.gen} }

// fork is the merge input Fork returns.
type fork struct{ of Part }

func (f fork) mergeInput() input {
	in := f.of.mergeInput()
	in.gen, in.fork = in.gen.Split(0xC1), 0x5C
	return in
}

// Fork returns s as a merge input that draws as a copy of s with
// generators of its own would: the sample's generator is s's Split(0xC1)
// and each stratum's is its own Substream(0x5C), the streams a copy of a
// stored sample has always been given, so merging a fork writes the bits
// that merging such a copy wrote. A fork shares s's strata.
func (s *Stratified) Fork() Part { return fork{s} }

// Fork is Stratified.Fork for a builder that keeps admitting after the
// merge: a sliding window's slide.
func (b *Builder) Fork() Part { return fork{b} }

// id returns the id of the stratum at position pos in key order.
func (in input) id(pos int) int32 {
	if in.ids == nil {
		return int32(pos)
	}
	return in.ids[pos]
}

// stratum returns the reservoir at id, nil for -1.
func (in input) stratum(id int32) *Reservoir {
	if id < 0 {
		return nil
	}
	return &in.res[id]
}

// read returns the stratum r as a merge reads it: r itself, or on a fork a
// header over the same tuples that draws from the fork's substream,
// written to buf.
func (in input) read(r, buf *Reservoir) *Reservoir {
	if in.fork == 0 {
		return r
	}
	*buf = Reservoir{k: r.k, width: r.width, weight: r.weight, data: r.data, gen: r.gen.Substream(in.fork)}
	return buf
}

// copyInto writes into out a copy of the stratum r as a merge reads it,
// its tuples into data: the case of Algorithm 2 where only r is defined.
func (in input) copyInto(out *Reservoir, data []int64, r *Reservoir) {
	*out = *in.read(r, out) // a fork's header is written to out itself
	out.data = append(data, r.data...)
}

// Seal publishes p: a *Stratified as it is, any other part — one worker's
// build, a loaded file, a fork — written by the writer's one-input form
// into storage of its own, on up to workers goroutines.
func Seal(p Part, workers int) *Stratified {
	if s, ok := p.(*Stratified); ok {
		return s
	}
	return write(p.mergeInput(), input{strata: &noStrata}, nil, workers)
}

// noStrata is the empty second input of the writer's one-input form.
var noStrata strata

// MergeStratified combines two stratified samples over disjoint inputs into
// one distributed as a direct stratified sample of the combined input — the
// paper's Algorithm 3: a group-by over the union of strata whose
// aggregation function is the reservoir merge of Algorithm 2. It writes
// the result into fresh storage (write), on up to workers goroutines, and
// reads its inputs without writing them.
//
// Both samples must share the schema and QCS width. Per-stratum capacities
// may differ (Algorithm 2 handles the scaled case). It is the two-part
// form: a Δ-sample merges into a stored one through it, and MergeN runs it
// over the rounds of a multi-part merge.
func MergeStratified(a, b Part, gen *rng.Lehmer64, workers int) (*Stratified, error) {
	x, y := a.mergeInput(), b.mergeInput()
	if !x.schema.Equal(y.schema) {
		return nil, fmt.Errorf("sample: merging stratified samples with schemas %v and %v", x.schema, y.schema)
	}
	if x.qcsWidth != y.qcsWidth {
		return nil, fmt.Errorf("sample: merging QCS widths %d and %d", x.qcsWidth, y.qcsWidth)
	}
	// The sample with more strata leads: its capacity and generator are the
	// result's, and its reservoir is the first input of every shared
	// stratum's merge.
	if len(y.res) > len(x.res) {
		x, y = y, x
	}
	return write(x, y, gen, workers), nil
}

// MergeN merges parts over disjoint inputs — the per-worker partials of an
// exchange, the per-segment samples of a segmented build, a window's
// slides — by rounds of MergeStratified, in order on the caller, each merge
// spreading its strata over up to workers goroutines: round r merges the
// part at i with the one at i+⌈n/2⌉ through gen.Split(r<<32|i), and an
// unpaired part waits for the next round. Merge order does not change the
// result's distribution; this one fixes its bits. One part is returned as
// it is, and no part is an error. It reads parts and writes neither them
// nor the slice.
func MergeN(parts []Part, gen *rng.Lehmer64, workers int) (Part, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("sample: no parts to merge")
	}
	parts = append([]Part(nil), parts...)
	for r := uint64(0); len(parts) > 1; r++ {
		half := (len(parts) + 1) / 2
		for i := 0; i+half < len(parts); i++ {
			m, err := MergeStratified(parts[i], parts[i+half], gen.Split(r<<32|uint64(i)), workers)
			if err != nil {
				return nil, err
			}
			parts[i] = m
		}
		parts = parts[:half]
	}
	return parts[0], nil
}

// write is the one writer of published samples. It lays the union of a's
// and b's strata out in key order, sizes every stratum (mergedLen),
// allocates the header slab and the tuple slab once, and then fills them
// in chunks of strata (forChunks) on up to workers goroutines, each chunk
// writing only its own ranges of both slabs. A stratum both hold merges by
// Algorithm 2, a's reservoir first, drawing from gen's substream numbered
// by key.splitIndex() — a pure function of the key and of gen's state,
// which no merge advances — so the result is the same however many workers
// ran; a stratum one holds is copied. The result takes a's capacity and
// generator. An empty b is the one-input form: a packed copy of a (Seal).
// It reads a and b and writes neither.
func write(a, b input, gen *rng.Lehmer64, workers int) *Stratified {
	type stratum struct {
		key  StratumKey
		a, b int32 // ids in a and b, -1 where absent
		off  int   // offset of its tuples in the tuple slab
	}
	na, nb := len(a.res), len(b.res)
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
		strata: strata{
			schema:   a.schema,
			qcsWidth: a.qcsWidth,
			k:        a.k,
			index:    newKeyIndex(a.qcsWidth, len(plan)),
			res:      make([]Reservoir, len(plan)),
			gen:      a.gen,
			weight:   a.weight + b.weight,
		},
		bytes: int64(total)*8 + int64(len(plan))*64,
	}
	for pos := range plan {
		out.index.Insert(&plan[pos].key)
	}
	tuples := make([]int64, total)
	size := chunkStrata(max(a.k, b.k))
	forChunks(len(plan), size, workers, func(int) func(c int) error {
		return func(c int) error {
			var bufA, bufB Reservoir
			lo, hi := chunkBounds(c, size, len(plan))
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
			return nil
		}
	})
	return out
}
