// Lightweight per-segment column encodings. A sealed segment's columns are
// immutable, so at first encoded scan the segment picks — per column, by
// scan cost in kernel steps — a representation the kernels can evaluate
// predicates over without reading the plain vector:
//
//   - EncConst:  every row holds one value (one int64 for the whole run);
//   - EncRLE:    run-length encoding for sorted/clustered columns (run
//     values + run start offsets, run ends implicit), adopted only when the
//     runs are long enough that one predicate test per run beats one
//     branchless compare per row (rleMinAvgRun).
//
// Everything else stays plain: a representation is adopted only where its
// scan is never slower than the plain compare. (Frame-of-reference
// bit-packing was retired for that reason: its per-row unpack is strictly
// more ALU work than the plain compare.)
//
// The plain []int64 vector remains the logical source of truth and stays
// resident — encodings are scan accelerators, never the only copy — which
// keeps gathers, joins, and per-row fallbacks O(1). So PhysBytes and the
// physical/logical ratio built from it are the bytes a scan reads, not heap
// saved. The open (last) segment of a table never encodes: its rows still
// change, and keeping it plain keeps appends O(1). Seal() converts a
// bulk-loaded table to the all-sealed layout so loaded data serves encoded
// scans immediately.
//
// Like zone maps, encodings are built once per sealed segment and the cache
// is carried by pointer across table versions (AppendColumns), so an append
// re-encodes nothing that was already sealed. See docs/PERFORMANCE.md,
// "Encoded storage".
package storage

import (
	"sync"
	"sync/atomic"
)

// EncKind identifies a column's physical representation within one segment.
type EncKind uint8

const (
	// EncPlain: the raw []int64 vector (no EncodedCol is materialized).
	EncPlain EncKind = iota
	// EncConst: a single value repeated for every row of the segment.
	EncConst
	// EncRLE: run-length encoded (Values[i] repeated over
	// [Starts[i], Starts[i+1])).
	EncRLE
)

// String implements fmt.Stringer.
func (k EncKind) String() string {
	switch k {
	case EncPlain:
		return "plain"
	case EncConst:
		return "const"
	case EncRLE:
		return "rle"
	default:
		return "enc(?)"
	}
}

// rleMinAvgRun is the adoption rule for RLE, in scan cost: a run step (one
// predicate test, one run-end lookup, one FillRange call or block move, and
// a branch that mispredicts when neighbouring runs disagree) costs as much as
// tens of plain row steps (one branchless compare each), so a column whose
// average run is shorter scans slower encoded than plain and stays plain.
// Measured by BenchmarkRunLength (internal/expr, BENCH_PR5.json), RLE kernels
// over plain on one morsel: at average run 4 producer and refiner take 4× the
// plain time (BenchmarkEncodedScan/shortruns is that case end to end), at 16
// still up to 1.5× and 1.7×; from 64 up the producer wins at every
// selectivity and the refiner is level.
const rleMinAvgRun = 64

// EncodedCol is one column of one sealed segment in encoded physical form.
// All row indices are segment-relative (0 = the segment's first row); the
// engine converts absolute morsel rows by subtracting the segment start.
// EncodedCols are immutable and safe for concurrent use.
type EncodedCol struct {
	// Name is the column name.
	Name string
	// Kind is EncConst or EncRLE (never EncPlain: plain columns simply have
	// no EncodedCol).
	Kind EncKind
	// Rows is the segment's row count.
	Rows int

	// Value is the repeated value for EncConst.
	Value int64

	// Values and Starts are the RLE runs: Values[i] repeats over rows
	// [Starts[i], Starts[i+1]) (the last run ends at Rows).
	Values []int64
	Starts []int32

	// PhysBytes is the bytes a scan of this representation reads: 16 for
	// const, 12 per run (value + start) for RLE.
	PhysBytes int64
}

// EncodeColumn encodes vals (one segment's slice of a column) or returns nil
// when the plain vector scans at least as fast: const is always adopted, RLE
// when the average run clears rleMinAvgRun, nothing else.
func EncodeColumn(name string, vals []int64) *EncodedCol {
	rows := len(vals)
	if rows == 0 {
		return nil
	}
	runs := 1
	for i := 1; i < rows; i++ {
		if vals[i] != vals[i-1] {
			runs++
		}
	}
	if runs == 1 {
		return &EncodedCol{Name: name, Kind: EncConst, Rows: rows, Value: vals[0], PhysBytes: 16}
	}
	if runs*rleMinAvgRun > rows {
		return nil
	}
	ec := &EncodedCol{Name: name, Kind: EncRLE, Rows: rows, PhysBytes: int64(runs) * 12,
		Values: make([]int64, 0, runs), Starts: make([]int32, 0, runs)}
	for i := 0; i < rows; i++ {
		if i == 0 || vals[i] != vals[i-1] {
			ec.Values = append(ec.Values, vals[i])
			ec.Starts = append(ec.Starts, int32(i))
		}
	}
	return ec
}

// NumRuns returns the run count for EncRLE columns.
func (e *EncodedCol) NumRuns() int { return len(e.Values) }

// RunContaining returns the index of the RLE run containing segment-relative
// row rel (binary search over run starts).
func (e *EncodedCol) RunContaining(rel int) int {
	lo, hi := 0, len(e.Starts)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(e.Starts[mid]) <= rel {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// RunEnd returns one past the last segment-relative row of RLE run ri.
func (e *EncodedCol) RunEnd(ri int) int {
	if ri+1 < len(e.Starts) {
		return int(e.Starts[ri+1])
	}
	return e.Rows
}

// At decodes segment-relative row i.
func (e *EncodedCol) At(i int) int64 {
	if e.Kind == EncConst {
		return e.Value
	}
	return e.Values[e.RunContaining(i)]
}

// DecodeInto decodes the segment-relative rows [from, to) into dst, which
// must have to-from capacity. Used by the equivalence and fuzz suites; the
// scan kernels never materialize.
func (e *EncodedCol) DecodeInto(dst []int64, from, to int) []int64 {
	dst = dst[:to-from]
	if e.Kind == EncConst {
		for i := range dst {
			dst[i] = e.Value
		}
		return dst
	}
	ri := e.RunContaining(from)
	for i := from; i < to; ri++ {
		end := e.RunEnd(ri)
		if end > to {
			end = to
		}
		v := e.Values[ri]
		for ; i < end; i++ {
			dst[i-from] = v
		}
	}
	return dst
}

// SumRange returns the exact int64 (wrapping) sum of segment-relative rows
// [from, to) straight from the encoded form: run_value × run_length
// arithmetic. This is the arithmetic behind the engine's fused aggregate
// path; the wrapping semantics match the plain kernels' int64 accumulation
// exactly.
//
//laqy:hot fused-aggregate fold over encoded runs
func (e *EncodedCol) SumRange(from, to int) int64 {
	if to <= from {
		return 0
	}
	if e.Kind == EncConst {
		return e.Value * int64(to-from)
	}
	ri := e.RunContaining(from)
	var sum int64
	for i := from; i < to; ri++ { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
		end := e.RunEnd(ri)
		if end > to {
			end = to
		}
		sum += e.Values[ri] * int64(end-i)
		i = end
	}
	return sum
}

// SegmentEncoding holds one sealed segment's encoded columns: only columns
// that adopted an encoding appear; everything else stays plain. Immutable
// after build.
type SegmentEncoding struct {
	cols map[string]*EncodedCol
	// physical counts every column: encoded bytes where an encoding was
	// adopted, rows×8 where the column stayed plain. logical is rows×cols×8.
	physical, logical int64
}

// Col returns the encoded form of the named column, or nil if it is plain
// in this segment.
func (e *SegmentEncoding) Col(name string) *EncodedCol { return e.cols[name] }

// NumEncoded returns how many columns adopted an encoding.
func (e *SegmentEncoding) NumEncoded() int { return len(e.cols) }

// PhysicalBytes returns the segment's physical byte footprint (encoded
// columns at encoded size, plain columns at rows×8).
func (e *SegmentEncoding) PhysicalBytes() int64 { return e.physical }

// LogicalBytes returns the segment's plain byte footprint (rows×cols×8).
func (e *SegmentEncoding) LogicalBytes() int64 { return e.logical }

// buildSegmentEncoding encodes the rows [start, end) of every column of t.
func buildSegmentEncoding(t *Table, start, end int) *SegmentEncoding {
	enc := &SegmentEncoding{cols: make(map[string]*EncodedCol)}
	rows := int64(end - start)
	for _, c := range t.columns {
		enc.logical += rows * 8
		if ec := EncodeColumn(c.Name, c.Ints[start:end]); ec != nil {
			enc.cols[c.Name] = ec
			enc.physical += ec.PhysBytes
		} else {
			enc.physical += rows * 8
		}
	}
	return enc
}

// encodingCache memoizes one lazily built SegmentEncoding, shared by
// pointer across table versions exactly like zoneMapCache. built allows
// metrics reads (EncodedSizesBuilt) without forcing a build.
type encodingCache struct {
	once  sync.Once
	built atomic.Bool
	enc   *SegmentEncoding
}

// Sealed reports whether the segment is sealed (not the table's open, last
// segment). Only sealed segments encode: their rows are immutable, so the
// encoded form can never go stale.
func (s *Segment) Sealed() bool {
	segs := s.t.Segments()
	return s.id < len(segs)-1
}

// Encoding returns the segment's encoded columns, built on first use and
// cached across table versions (sealed rows are copied verbatim on append,
// so the encodings stay exact). Returns nil for empty segments and for the
// open segment, which stays plain for O(1) appends.
func (s *Segment) Encoding() *SegmentEncoding {
	if s.Rows() == 0 || !s.Sealed() {
		return nil
	}
	s.enc.once.Do(func() {
		s.enc.enc = buildSegmentEncoding(s.t, s.start, s.end)
		s.enc.built.Store(true)
	})
	return s.enc.enc
}

// Seal returns a table version in which every current row belongs to a
// sealed segment: if the last segment is non-empty, a fresh empty open
// segment is appended after it. Sealed segments become eligible for encoded
// scans (Encoding); later appends fill the new open segment. Bulk loaders
// call this after Resegment so loaded data serves encoded scans immediately;
// the empty open segment is invisible to planning (segment sources skip
// empty segments) and to Δ-maintenance (an empty watermark is a no-op).
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
		ns = append(ns, &Segment{start: s.start, end: s.end, version: s.version, zone: s.zone, enc: s.enc})
	}
	ns = append(ns, &Segment{start: t.rows, end: t.rows, version: 1})
	nt.setSegments(ns)
	return nt, nil
}

// EncodedSizes returns the table's physical (encoded) and logical byte
// footprints, building any missing sealed-segment encodings — the
// "seal-time" encode for bulk loads, amortized across all later encoded
// scans. The open segment counts at its plain size on both ledgers.
func (t *Table) EncodedSizes() (physical, logical int64) {
	return t.encodedSizes(true)
}

// EncodedSizesBuilt is EncodedSizes without forcing builds: segments whose
// encodings have not been built yet count at plain size. Metrics gauges use
// it so reading /metrics never triggers encoding work.
func (t *Table) EncodedSizesBuilt() (physical, logical int64) {
	return t.encodedSizes(false)
}

func (t *Table) encodedSizes(force bool) (physical, logical int64) {
	nCols := int64(len(t.columns))
	for _, s := range t.Segments() {
		plain := int64(s.Rows()) * nCols * 8
		logical += plain
		var enc *SegmentEncoding
		if force {
			enc = s.Encoding()
		} else if s.enc.built.Load() {
			enc = s.enc.enc
		}
		if enc != nil {
			physical += enc.physical
		} else {
			physical += plain
		}
	}
	return physical, logical
}
