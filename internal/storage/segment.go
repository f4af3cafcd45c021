// Segment sharding: a Table is split into contiguous row ranges, each with
// its own version and zone map. This is the storage half of the paper's
// merge-algebra payoff — per-segment reservoirs built independently are
// mergeable proportionally/scaled-proportionally (Algorithms 2/3 in
// internal/sample) with no resampling — and it follows the Milvus querynode
// shape: sealed segments are immutable and carry their summaries forward
// across appends; only the open (last) segment ever changes.
//
// Every append constructs a new Table version; its columns extend the old
// version's vectors in place where the catalog holds spare capacity
// (Appender), so old versions keep reading the same prefix. What
// segmentation adds is that the new version *shares* the sealed segments'
// zone-map caches with the old version (their rows are unchanged). The
// per-segment maps are the only zone maps there are — a scan that crosses
// segments folds the maps of the segments it overlaps — and the open
// segment's new map extends its old one, so the summary cost of an append is
// one read of the appended rows, whatever the table's size.
// See docs/SHARDING.md.
package storage

import "fmt"

// DefaultSegmentRows is the open-segment capacity: appends route to the
// open segment until it holds this many rows, then seal it and open a new
// one. A multiple of DefaultMorselSize (16 morsels) so segment-scoped scans
// keep full-width morsels.
const DefaultSegmentRows = 1 << 20

// Segment is one horizontal shard of a table: the contiguous row range
// [Start, End) with its own content version and lazily built zone map.
// Segments are immutable views; appends produce a new Table whose sealed
// segments share these structs' zone caches.
type Segment struct {
	id      int
	start   int
	end     int
	version uint64
	t       *Table
	zone    *zoneMapCache
}

// ID is the segment's position in the table's segment list (dense, 0-based).
func (s *Segment) ID() int { return s.id }

// Start returns the first absolute row of the segment.
func (s *Segment) Start() int { return s.start }

// End returns one past the last absolute row of the segment.
func (s *Segment) End() int { return s.end }

// Rows returns the segment's row count.
func (s *Segment) Rows() int { return s.end - s.start }

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
		if from := s.zone.from; from != nil {
			s.zone.built.Store(from.extend(s.t, s.end))
		} else {
			s.zone.built.Store(buildZoneMapRange(s.t, s.start, s.Rows(), DefaultMorselSize))
		}
	})
	return s.zone.built.Load()
}

// Segments returns the table's segment list in row order. Tables built by
// NewTable have a single segment spanning all rows, which owns the table's
// one zone-map cache. The returned slice must not be modified.
func (t *Table) Segments() []*Segment {
	t.segOnce.Do(func() {
		if t.segs == nil {
			t.segs = []*Segment{{start: 0, end: t.rows, version: 1, t: t, zone: &zoneMapCache{}}}
		}
	})
	return t.segs
}

// NumSegments returns the number of segments.
func (t *Table) NumSegments() int { return len(t.Segments()) }

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

// setSegments installs an explicit segment list built by a constructor. It
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
	t.segOnce.Do(func() {}) // mark initialized
}

// SegmentTableAt splits a table at the given absolute cut points (each in
// (0, NumRows)), returning a new Table sharing the column vectors. Used by
// tests and benchmarks that need uneven or empty segments; production
// ingest goes through AppendColumns, which seals at a fixed capacity.
func SegmentTableAt(t *Table, cuts ...int) (*Table, error) {
	nt, err := NewTable(t.Name, t.columns...)
	if err != nil {
		return nil, err
	}
	bounds := append([]int{0}, cuts...)
	bounds = append(bounds, t.rows)
	segs := make([]*Segment, 0, len(bounds)-1)
	for i := 1; i < len(bounds); i++ {
		lo, hi := bounds[i-1], bounds[i]
		if lo > hi || hi > t.rows {
			return nil, fmt.Errorf("storage: table %q: bad segment cut %d (prev %d, rows %d)",
				t.Name, hi, lo, t.rows)
		}
		segs = append(segs, &Segment{start: lo, end: hi, version: 1})
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
	return s.id < len(s.t.Segments())-1
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
	segs := t.Segments()
	if segs[len(segs)-1].Rows() == 0 {
		return t, nil
	}
	nt, err := NewTable(t.Name, t.columns...)
	if err != nil {
		return nil, err
	}
	ns := make([]*Segment, 0, len(segs)+1)
	for _, s := range segs {
		ns = append(ns, &Segment{start: s.start, end: s.end, version: s.version, zone: s.zone})
	}
	ns = append(ns, &Segment{start: t.rows, end: t.rows, version: 1})
	nt.setSegments(ns)
	return nt, nil
}

// AppendColumns builds the next version of old from already-concatenated
// column vectors (each grown column must extend old's same-position column),
// routing the appended rows to the open segment:
//
//   - sealed segments (every segment but the last) carry their zone-map
//     caches and versions into the new table — their rows are unchanged,
//     so the summaries stay exact;
//   - the open segment absorbs rows up to segmentRows, bumping its version
//     and taking a fresh cache, whose build extends the old version's map
//     (built, or itself still to extend) by the appended rows only, and
//     summarizes the whole segment when there is no such map;
//   - overflow seals the open segment and spills into fresh segments of up
//     to segmentRows rows each.
//
// segmentRows <= 0 uses DefaultSegmentRows. The caller owns dictionary
// re-encoding; this function only validates shape (column count, names,
// kinds, and that rows were appended, not removed).
func AppendColumns(old *Table, grown []*Column, segmentRows int) (*Table, error) {
	if len(grown) != len(old.columns) {
		return nil, fmt.Errorf("storage: append to %q: %d columns, want %d",
			old.Name, len(grown), len(old.columns))
	}
	for i, c := range old.columns {
		if grown[i] == nil || grown[i].Name != c.Name || grown[i].Kind != c.Kind {
			return nil, fmt.Errorf("storage: append to %q: column %d must stay %q %s",
				old.Name, i, c.Name, c.Kind)
		}
	}
	nt, err := NewTable(old.Name, grown...)
	if err != nil {
		return nil, err
	}
	if nt.rows < old.rows {
		return nil, fmt.Errorf("storage: append to %q: shrank from %d to %d rows",
			old.Name, old.rows, nt.rows)
	}
	nt.setSegments(appendSegments(old, nt.rows, normalizeSegmentRows(segmentRows)))
	return nt, nil
}

// appendSegments is the segment layout of old grown to rows rows, segRows
// (normalized) at most per segment; see AppendColumns.
func appendSegments(old *Table, rows, segRows int) []*Segment {
	oldSegs := old.Segments()
	segs := make([]*Segment, 0, len(oldSegs)+1+(rows-old.rows)/segRows)
	for _, s := range oldSegs[:len(oldSegs)-1] {
		segs = append(segs, &Segment{start: s.start, end: s.end, version: s.version, zone: s.zone})
	}
	open := oldSegs[len(oldSegs)-1]
	pending := rows - old.rows
	row := open.start
	if capacity := segRows - open.Rows(); capacity <= 0 || pending == 0 {
		// The open segment is already at (or past) capacity, or nothing was
		// appended: it seals as-is and keeps its summary.
		segs = append(segs, &Segment{start: open.start, end: open.end, version: open.version, zone: open.zone})
		row = open.end
	} else {
		take := capacity
		if take > pending {
			take = pending
		}
		segs = append(segs, &Segment{start: open.start, end: open.end + take, version: open.version + 1,
			zone: &zoneMapCache{from: open.zone.summary()}})
		row = open.end + take
		pending -= take
	}
	for pending > 0 {
		take := segRows
		if take > pending {
			take = pending
		}
		segs = append(segs, &Segment{start: row, end: row + take, version: 1})
		row += take
		pending -= take
	}
	return segs
}
