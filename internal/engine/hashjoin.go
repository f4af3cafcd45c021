package engine

import (
	"cmp"
	"fmt"
	"slices"

	"laqy/internal/expr"
)

// denseSpanFactor decides a join table's representation: when the keys the
// dimension filter keeps span fewer than denseSpanFactor values per
// dimension row, the table is a direct-address array, otherwise a hash map.
// The array costs at most 4·denseSpanFactor bytes per dimension row, and a
// probe is one load instead of a Go map lookup (BenchmarkStarJoin: the same
// Q2.1 star runs ~3× faster on arrays). 32 admits every SSB dimension under
// any filter: the widest is date, whose yyyymmdd keys span 61 130 values
// over 2 520 rows (24×). The array then spans all the dimension's keys when
// they pass the same rule (newJoinTable).
const denseSpanFactor = 32

// joinTable is one dimension join, built once per pipeline run and shared
// read-only across scan workers: dimension key → index of the dimension row
// with that key, over the rows the join's filter keeps.
//
// Dense keys take a direct-address table: rows[1+key−lo] is the row, −1 for
// none, and slot 0 is a permanent −1 miss slot, where the probes send every
// key outside [lo, lo+len(rows)−1). Keys too spread for that keep the hash map
// rowByKey (non-nil exactly then); DB.Register accepts any key layout, so
// the map stays.
type joinTable struct {
	factKeyVec []int64
	lo         int64
	rows       []int32
	rowByKey   map[int64]int32

	// slot is the join's index in Query.Joins — the dimRows vector its probe
	// writes and columnSource.joinIdx names. prior holds the slots of the
	// joins probed before it, whose vectors its compaction carries.
	slot  int
	prior []int
	// The filter keeps kept of the dimension's dimRows rows; kept/dimRows
	// orders the probes.
	kept, dimRows int
}

// buildJoinTables constructs the tables for all joins of q, in probe order:
// ascending fraction of dimension rows kept, ties in join order. The most
// selective join then shrinks the selection first and the later probes touch
// fewer rows; which fact rows survive, and their order, is the same in any
// order. Dimension tables are small relative to the fact table (SSB
// dimensions), so the build is single-threaded.
func buildJoinTables(q *Query) ([]joinTable, error) {
	out := make([]joinTable, len(q.Joins))
	for j, jn := range q.Joins {
		factKey := q.Fact.Column(jn.FactKey)
		if factKey == nil {
			return nil, fmt.Errorf("engine: join %d: fact key column %q missing", j, jn.FactKey)
		}
		dimKey := jn.Dim.Column(jn.DimKey)
		if dimKey == nil {
			return nil, fmt.Errorf("engine: join %d: dimension key column %q missing in %q",
				j, jn.DimKey, jn.Dim.Name)
		}
		filter, err := expr.Compile(jn.Filter, func(name string) []int64 {
			if c := jn.Dim.Column(name); c != nil {
				return c.Ints
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("engine: join %d on %q: %w", j, jn.Dim.Name, err)
		}
		kept := filter.SelectInto(0, len(dimKey.Ints), nil)
		jt, err := newJoinTable(dimKey.Ints, kept)
		if err != nil {
			return nil, fmt.Errorf("engine: join %d on %q: %w", j, jn.Dim.Name, err)
		}
		jt.factKeyVec, jt.slot = factKey.Ints, j
		out[j] = jt
	}
	slices.SortStableFunc(out, func(a, b joinTable) int {
		return cmp.Compare(int64(a.kept)*int64(max(b.dimRows, 1)), int64(b.kept)*int64(max(a.dimRows, 1)))
	})
	slots := make([]int, len(out))
	for i := range out {
		slots[i] = out[i].slot
		out[i].prior = slots[:i]
	}
	return out, nil
}

// newJoinTable indexes the kept rows of a dimension by their key column,
// choosing the representation by denseSpanFactor over the kept keys. An
// array spans all the dimension's keys when they pass the same rule, so
// that a valid foreign key always lands inside it, and the kept keys
// otherwise. A table that keeps nothing is the miss slot alone. A key two
// kept rows share fails the build: a star join maps each foreign key to one
// dimension row.
func newJoinTable(keys []int64, kept []int32) (joinTable, error) {
	jt := joinTable{kept: len(kept), dimRows: len(keys)}
	if len(kept) == 0 {
		jt.rows = []int32{-1}
		return jt, nil
	}
	lo, hi := keys[kept[0]], keys[kept[0]]
	for _, i := range kept {
		lo, hi = min(lo, keys[i]), max(hi, keys[i])
	}
	// The span in uint64 is exact for any int64 lo <= hi, and the test bounds
	// it before span+2 is taken.
	limit := uint64(len(keys)) * denseSpanFactor
	if span := uint64(hi) - uint64(lo); span < limit {
		allLo, allHi := slices.Min(keys), slices.Max(keys)
		if all := uint64(allHi) - uint64(allLo); all < limit {
			lo, span = allLo, all
		}
		rows := make([]int32, span+2)
		for i := range rows {
			rows[i] = -1
		}
		for _, i := range kept {
			slot := &rows[1+uint64(keys[i])-uint64(lo)]
			if *slot >= 0 {
				return joinTable{}, duplicateKey(keys[i])
			}
			*slot = i
		}
		jt.lo, jt.rows = lo, rows
		return jt, nil
	}
	jt.rowByKey = make(map[int64]int32, len(kept))
	for _, i := range kept {
		if _, dup := jt.rowByKey[keys[i]]; dup {
			return joinTable{}, duplicateKey(keys[i])
		}
		jt.rowByKey[keys[i]] = i
	}
	return jt, nil
}

// duplicateKey is newJoinTable's error for a key two kept rows share.
func duplicateKey(key int64) error {
	return fmt.Errorf("key %d repeats among the joined dimension rows (only key–foreign-key joins are supported)", key)
}

// probe resolves the join for the selected fact rows: for each index in
// sel, it looks up the fact key and writes the matching dimension row into
// dimRows[jt.slot]. Rows without a match are dropped, compacting sel and
// the dimRows of the joins probed before this one in place. Returns the
// compacted length.
func (jt *joinTable) probe(sel []int32, dimRows [][]int32) int {
	if jt.rowByKey != nil {
		return jt.probeMap(sel, dimRows)
	}
	return jt.probeArray(sel, dimRows)
}

// probeRange is probe's range entry, for the first join of a whole morsel
// (one the scan filter keeps entire): it reads the fact keys of rows
// [start, end) in order, with no selection vector going in, and writes the
// matching rows' indices to sel[:n] and their dimension rows to
// dimRows[jt.slot][:n]. sel needs room for end−start indices. The first
// join has no prior vectors to carry. Returns n. The map lookup dominates a
// map probe, so the map side fills sel with the range and probes that.
func (jt *joinTable) probeRange(start, end int, sel []int32, dimRows [][]int32) int {
	if jt.rowByKey != nil {
		return jt.probeMap(expr.FillRange(sel[:0], start, end), dimRows)
	}
	return jt.probeArrayRange(start, end, sel, dimRows[jt.slot])
}

// probeArray is probe over the direct-address table, with no data-dependent
// branch: d = uint64(key−lo) is exact for every int64 key, a d outside the
// array's span is masked to the miss slot, and the index, the row and the
// prior vectors are stored at the cursor whether the row matched or not;
// the cursor advances by row >= 0, read off the row's sign bit. A miss's
// stores land at the cursor, which the next row overwrites, and never past
// position i, which the loop has already read. The bounds checks left never
// fail.
//
// The kernels are kept out of line on purpose: inlined into the per-morsel
// pipeline body (a closure with many live values) the loop's indices spill
// to the stack and join-heavy scans run slower; compiled on their own they
// keep them in registers, and one call per join per morsel costs nothing.
//
//laqy:hot per-chunk join probe on the scan path
//go:noinline
func (jt *joinTable) probeArray(sel []int32, dimRows [][]int32) int {
	keys, lo, rows := jt.factKeyVec, jt.lo, jt.rows
	span := uint64(len(rows) - 1)
	own, prior := dimRows[jt.slot][:len(sel)], jt.prior
	out := 0
	for i, idx := range sel { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
		d := uint64(keys[idx] - lo)
		row := rows[(d+1)&-b2u(d < span)]
		sel[out] = idx
		for _, p := range prior {
			dimRows[p][out] = dimRows[p][i]
		}
		own[out] = row
		out += int(uint32(^row) >> 31)
	}
	return out
}

// probeArrayRange is probeRange over the direct-address table, the same
// masked load and stores as probeArray. Cutting sel and own to the range's
// length first lets the compiler keep the loop in registers.
//
//laqy:hot per-chunk join probe on the scan path
//go:noinline
func (jt *joinTable) probeArrayRange(start, end int, sel, own []int32) int {
	lo, rows := jt.lo, jt.rows
	span := uint64(len(rows) - 1)
	keys := jt.factKeyVec[start:end]
	sel, own = sel[:len(keys)], own[:len(keys)]
	out := 0
	for i, key := range keys { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
		d := uint64(key - lo)
		row := rows[(d+1)&-b2u(d < span)]
		sel[out] = int32(start + i)
		own[out] = row
		out += int(uint32(^row) >> 31)
	}
	return out
}

// b2u converts a bool to 0/1; inlined, the compiler lowers it to a flag-set
// instruction (SETcc), so the probes' bound test feeds an AND, not a jump.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// probeMap is probe over the hash map, for keys too spread for an array.
//
//laqy:hot per-chunk join probe on the scan path
//go:noinline
func (jt *joinTable) probeMap(sel []int32, dimRows [][]int32) int {
	own, prior := dimRows[jt.slot], jt.prior
	out := 0
	for i, idx := range sel { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
		row, ok := jt.rowByKey[jt.factKeyVec[idx]]
		if !ok {
			continue
		}
		sel[out] = idx
		for _, p := range prior {
			dimRows[p][out] = dimRows[p][i]
		}
		own[out] = row
		out++
	}
	return out
}
