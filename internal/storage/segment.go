// Segment sharding: a Table is split into contiguous row ranges, each with
// its own version, zone map and column vectors. This is the storage half of
// the paper's merge-algebra payoff — per-segment reservoirs built
// independently are mergeable proportionally/scaled-proportionally
// (Algorithms 2/3 in internal/sample) with no resampling — and it follows
// the Milvus querynode shape: sealed segments are immutable and carry their
// rows and summaries forward across appends; only the open (last) segment
// ever changes.
//
// Every segment owns its rows: one vector per column. A bulk load's
// segments are capped sub-slices of the loaded vectors, with no copy. Every
// append constructs a new Table version that shares the sealed segments —
// their vectors and their zone-map caches — unchanged, so an append never
// copies a sealed row. Only the open segment's vectors grow: in place while
// they have room (old versions keep reading the same prefix), otherwise
// into a new allocation that copies the open segment's rows alone, never
// past the segment's capacity. The per-segment maps are the only zone maps
// there are, and the open segment's new map extends its old one, so the
// summary cost of an append is one read of the appended rows, whatever the
// table's size. See docs/SHARDING.md.
package storage

import "fmt"

// DefaultSegmentRows is the open-segment capacity: appends route to the
// open segment until it holds this many rows, then seal it and open a new
// one. A multiple of DefaultMorselSize (16 morsels) so segment-scoped scans
// keep full-width morsels.
const DefaultSegmentRows = 1 << 20

// Segment is one horizontal shard of a table: the contiguous row range
// [Start, End), its rows (one vector per column), its content version and
// its lazily built zone map. Segments are immutable views; appends produce
// a new Table whose sealed segments share these structs' vectors and zone
// caches.
type Segment struct {
	id      int
	start   int
	end     int
	version uint64
	// cols are the segment's rows of each column in schema order, each
	// capped at its length: row Start()+i of column c is cols[c][i].
	cols [][]int64
	t    *Table
	zone *zoneMapCache
}

// ID is the segment's position in the table's segment list (dense, 0-based).
func (s *Segment) ID() int { return s.id }

// Start returns the first absolute row of the segment.
func (s *Segment) Start() int { return s.start }

// End returns one past the last absolute row of the segment.
func (s *Segment) End() int { return s.end }

// Rows returns the segment's row count.
func (s *Segment) Rows() int { return s.end - s.start }

// Column returns the segment's rows of the named column — element i is
// absolute row Start()+i — or nil if the table has no such column. An
// empty segment's vectors may be nil too. The slice must not be modified.
func (s *Segment) Column(name string) []int64 {
	i, ok := s.t.meta.index[name]
	if !ok {
		return nil
	}
	return s.cols[i]
}

// Version is the segment's content version. Sealed segments keep their
// version across table versions; the open segment's version bumps on every
// append that lands rows in it. Per-sample provenance (store.Meta) records
// (ID, Version, Rows) triples so Δ-maintenance can prove a sealed segment
// unchanged without rescanning it.
func (s *Segment) Version() uint64 { return s.version }

// ZoneMap returns the segment's zone map at DefaultMorselSize granularity,
// built on first use over the segment's rows only and cached. The cache is
// shared with the same segment in other versions of the table (the rows are
// identical), so sealed segments never rebuild after an append, and a grown
// open segment's build extends its previous version's map by the appended
// rows. Returns nil for empty segments.
func (s *Segment) ZoneMap() *ZoneMap {
	if s.Rows() == 0 {
		return nil
	}
	s.zone.once.Do(func() {
		from := s.zone.from
		if from == nil {
			from = &ZoneMap{zoneSize: DefaultMorselSize, base: s.start}
		}
		s.zone.built.Store(from.extend(s.t.meta.fields, s.cols, s.Rows()))
	})
	return s.zone.built.Load()
}

// carry returns a copy of s for a later version of its table: the same
// rows, version and zone cache.
func (s *Segment) carry() *Segment {
	return &Segment{start: s.start, end: s.end, version: s.version, cols: s.cols, zone: s.zone}
}

// Segments returns the table's segment list in row order. A table built by
// NewTable has a single segment spanning all rows. The returned slice must
// not be modified.
func (t *Table) Segments() []*Segment { return t.segs }

// NumSegments returns the number of segments.
func (t *Table) NumSegments() int { return len(t.segs) }

// normalizeSegmentRows applies the default and floors at one morsel so a
// pathological configuration can't produce per-row segments.
func normalizeSegmentRows(segmentRows int) int {
	if segmentRows <= 0 {
		return DefaultSegmentRows
	}
	if segmentRows < DefaultMorselSize {
		return DefaultMorselSize
	}
	return segmentRows
}

// setSegments installs the segment list of a table under construction. It
// must be called before the table is published (no locking).
func (t *Table) setSegments(segs []*Segment) {
	for i, s := range segs {
		s.id = i
		s.t = t
		if s.zone == nil {
			s.zone = &zoneMapCache{}
		}
	}
	t.segs = segs
}

// wholeVectors returns rows [lo, hi) of each column, capped at hi: a
// segment's vectors inside whole-table columns, with no copy.
func wholeVectors(cols []*Column, lo, hi int) [][]int64 {
	out := make([][]int64, len(cols))
	for i, c := range cols {
		out[i] = c.Ints[lo:hi:hi]
	}
	return out
}

// SegmentTableAt splits a table at the given absolute cut points (each in
// (0, NumRows)), returning a new Table whose segments are sub-slices of the
// table's whole-table columns. Used by tests and benchmarks that need
// uneven or empty segments; production ingest goes through AppendColumns,
// which seals at a fixed capacity.
func SegmentTableAt(t *Table, cuts ...int) (*Table, error) {
	cols := t.Columns()
	nt := &Table{Name: t.Name, meta: t.meta, rows: t.rows, columns: cols}
	bounds := append([]int{0}, cuts...)
	bounds = append(bounds, t.rows)
	segs := make([]*Segment, 0, len(bounds)-1)
	for i := 1; i < len(bounds); i++ {
		lo, hi := bounds[i-1], bounds[i]
		if lo > hi || hi > t.rows {
			return nil, fmt.Errorf("storage: table %q: bad segment cut %d (prev %d, rows %d)",
				t.Name, hi, lo, t.rows)
		}
		segs = append(segs, &Segment{start: lo, end: hi, version: 1, cols: wholeVectors(cols, lo, hi)})
	}
	nt.setSegments(segs)
	return nt, nil
}

// Resegment splits a table into segments of segmentRows rows (the last may
// be short), returning a new Table sharing the column vectors. Bulk loads
// use it to install the segment layout appends will then maintain.
func Resegment(t *Table, segmentRows int) (*Table, error) {
	segRows := normalizeSegmentRows(segmentRows)
	cuts := make([]int, 0, t.rows/segRows)
	for cut := segRows; cut < t.rows; cut += segRows {
		cuts = append(cuts, cut)
	}
	return SegmentTableAt(t, cuts...)
}

// Sealed reports whether the segment is sealed (not the table's open, last
// segment): its rows can no longer change.
func (s *Segment) Sealed() bool {
	return s.id < len(s.t.segs)-1
}

// Seal returns a table version in which every current row belongs to a
// sealed segment: if the last segment is non-empty, a fresh empty open
// segment is appended after it, and later appends fill that one. Bulk
// loaders call this after Resegment, so the loaded segments keep their
// boundaries — and with them their per-segment build seeds and sample
// identities — however many rows arrive later. The empty open segment is
// invisible to planning (segment sources skip empty segments) and to
// zone-map pruning (it has no map).
func Seal(t *Table) (*Table, error) {
	segs := t.segs
	if segs[len(segs)-1].Rows() == 0 {
		return t, nil
	}
	nt := &Table{Name: t.Name, meta: t.meta, rows: t.rows, columns: t.columns}
	ns := make([]*Segment, 0, len(segs)+1)
	for _, s := range segs {
		ns = append(ns, s.carry())
	}
	ns = append(ns, &Segment{start: t.rows, end: t.rows, version: 1, cols: make([][]int64, len(t.meta.fields))})
	nt.setSegments(ns)
	return nt, nil
}

// AppendColumns builds the next version of old with batch — one vector per
// column in schema order, of equal lengths, dictionary codes for string
// columns — written after old's rows. The rows route to the open segment:
//
//   - sealed segments (every segment but the last) carry their vectors,
//     zone-map caches and versions into the new table unchanged;
//   - the open segment absorbs rows up to segmentRows, bumping its version
//     and taking a fresh cache, whose build extends the old version's map
//     (built, or itself still to extend) by the appended rows only. Its
//     rows land in the spare capacity behind old's open segment when they
//     fit and no other version has claimed it; otherwise in a new
//     allocation (openCapacity) holding a copy of the open segment's rows;
//   - overflow seals the open segment and spills into fresh segments of up
//     to segmentRows rows each, each its own allocation.
//
// So an append copies the batch and at most the open segment's rows, never
// a sealed one, and versions already published read the same rows as
// before. segmentRows <= 0 uses DefaultSegmentRows. An empty batch returns
// old. The caller owns dictionary re-encoding.
func AppendColumns(old *Table, batch [][]int64, segmentRows int) (*Table, error) {
	fields := old.meta.fields
	if len(batch) != len(fields) {
		return nil, fmt.Errorf("storage: append to %q: %d columns, want %d",
			old.Name, len(batch), len(fields))
	}
	m := 0
	if len(batch) > 0 {
		m = len(batch[0])
	}
	for i, b := range batch {
		if len(b) != m {
			return nil, fmt.Errorf("storage: append to %q: column %q has %d rows, want %d",
				old.Name, fields[i].Name, len(b), m)
		}
	}
	if m == 0 {
		return old, nil
	}
	segRows := normalizeSegmentRows(segmentRows)
	nt := &Table{Name: old.Name, meta: old.meta, rows: old.rows + m}
	segs := make([]*Segment, 0, len(old.segs)+1+m/segRows)
	for _, s := range old.segs {
		segs = append(segs, s.carry())
	}
	for placed := 0; placed < m; {
		open := segs[len(segs)-1]
		room := segRows - open.Rows()
		if room <= 0 {
			// The open segment is full: it seals as it is, and a fresh one
			// opens after it.
			open = &Segment{start: open.end, end: open.end, cols: make([][]int64, len(batch)), zone: &zoneMapCache{}}
			segs, room = append(segs, open), segRows
		}
		take := min(room, m-placed)
		var vecs [][]int64
		if open.start == old.segs[len(old.segs)-1].start { // old's open segment: its spare may take the rows
			vecs = old.claimSpare(take)
		}
		if vecs == nil {
			vecs = make([][]int64, len(batch))
			for i, v := range open.cols {
				vecs[i] = append(make([]int64, 0, openCapacity(len(v), len(v)+take, segRows)), v...)
			}
		}
		for i := range vecs {
			vecs[i] = append(vecs[i], batch[i][placed:placed+take]...)
		}
		segs[len(segs)-1] = &Segment{start: open.start, end: open.end + take, version: open.version + 1,
			cols: capped(vecs), zone: &zoneMapCache{from: open.zone.summary()}}
		nt.spare = vecs
		placed += take
	}
	nt.setSegments(segs)
	return nt, nil
}

// openCapacity is the capacity, in rows, of a new allocation for an open
// segment that holds have rows and must hold need: at least one morsel,
// double what it holds, at least need, and never past the segment's
// capacity segRows. A segment filled by small appends starts at one morsel
// and doubles at each reallocation, so it is reallocated about
// log2(segRows/morsel) times, copies its rows about once in total, and
// holds at most one morsel or as many spare rows as it has; a segment of
// one morsel (the floor) is allocated once, and a batch that fills a
// segment allocates it exactly.
func openCapacity(have, need, segRows int) int {
	return min(segRows, max(need, 2*have, DefaultMorselSize))
}

// claimSpare returns the full-capacity vectors behind t's open segment when
// n more rows fit in them, and claims them: no other version grown from t
// writes there. It returns nil when there is no room or another version has
// claimed the capacity.
func (t *Table) claimSpare(n int) [][]int64 {
	if t.spare == nil || cap(t.spare[0])-len(t.spare[0]) < n || !t.claimed.CompareAndSwap(false, true) {
		return nil
	}
	return append([][]int64(nil), t.spare...)
}

// capped returns vectors clipped to their lengths (cap == len), so a
// reader's append never writes into the capacity a later version fills.
func capped(vecs [][]int64) [][]int64 {
	out := make([][]int64, len(vecs))
	for i, v := range vecs {
		out[i] = v[:len(v):len(v)]
	}
	return out
}
