package storage

import "sync"

// ZoneMap holds per-zone min/max summaries for every column of one segment
// (Segment.ZoneMap): the lightweight scan index ("small materialized
// aggregates") that lets the engine's morsel driver skip chunks whose value
// ranges cannot intersect a predicate, and take a compare-free fast path
// through chunks entirely inside it.
//
// Zones are fixed-width, segment-aligned row ranges of DefaultMorselSize
// rows; an arbitrary row range inside the segment is summarized by folding
// the zones it overlaps, and a morsel that crosses a segment boundary by
// folding the maps of both segments (engine's morselPlan), so pruning stays
// exact when the scan starts mid-table (ScanFrom > 0 during incremental
// Δ-scans) and when a segment sealed at a row count that is not a multiple
// of the zone size.
//
// A ZoneMap is immutable after construction and safe for concurrent reads.
// It summarizes the segment version it was built from: an append that lands
// rows in the open segment gives it a fresh cache (AppendColumns), so a
// grown segment never serves a stale summary.
type ZoneMap struct {
	zoneSize int
	// base is the absolute row the summary starts at (the segment's first
	// row): zone i covers rows [base+i*zoneSize, base+(i+1)*zoneSize), so
	// Bounds takes absolute coordinates.
	base   int
	rows   int
	byName map[string]zoneCol
}

// Start returns the first absolute row the map summarizes.
func (z *ZoneMap) Start() int { return z.base }

// End returns one past the last absolute row the map summarizes.
func (z *ZoneMap) End() int { return z.base + z.rows }

// zoneCol is the per-column summary: mins[i]/maxs[i] bound the values of
// zone i.
type zoneCol struct {
	mins, maxs []int64
}

// ZoneSize returns the zone granularity in rows.
func (z *ZoneMap) ZoneSize() int { return z.zoneSize }

// NumZones returns the number of zones the segment is split into.
func (z *ZoneMap) NumZones() int {
	if z.zoneSize == 0 {
		return 0
	}
	return (z.rows + z.zoneSize - 1) / z.zoneSize
}

// Column reports whether the named column is summarized.
func (z *ZoneMap) Column(name string) bool {
	_, ok := z.byName[name]
	return ok
}

// Bounds returns the [lo, hi] value bounds of the named column over the row
// range [start, end), folding every overlapped zone. ok is false when the
// column is unknown, the range is empty, or it reaches outside
// [Start, End) — callers must then fall back to evaluating the range.
func (z *ZoneMap) Bounds(name string, start, end int) (lo, hi int64, ok bool) {
	c, found := z.byName[name]
	if !found || start >= end || start < z.base || end > z.base+z.rows {
		return 0, 0, false
	}
	z0 := (start - z.base) / z.zoneSize
	z1 := (end - 1 - z.base) / z.zoneSize
	lo, hi = c.mins[z0], c.maxs[z0]
	for i := z0 + 1; i <= z1; i++ {
		if c.mins[i] < lo {
			lo = c.mins[i]
		}
		if c.maxs[i] > hi {
			hi = c.maxs[i]
		}
	}
	return lo, hi, true
}

// buildZoneMapRange computes the per-zone min/max of every column over the
// row range [base, base+rows). Segment builds summarize only their own rows,
// which is what lets sealed segments carry their maps across appends while
// the open segment alone re-summarizes.
func buildZoneMapRange(t *Table, base, rows, zoneSize int) *ZoneMap {
	if zoneSize <= 0 {
		zoneSize = DefaultMorselSize
	}
	zones := (rows + zoneSize - 1) / zoneSize
	z := &ZoneMap{
		zoneSize: zoneSize,
		base:     base,
		rows:     rows,
		byName:   make(map[string]zoneCol, len(t.columns)),
	}
	for _, col := range t.columns {
		zc := zoneCol{mins: make([]int64, zones), maxs: make([]int64, zones)}
		vec := col.Ints[base : base+rows]
		for zi := 0; zi < zones; zi++ {
			start := zi * zoneSize
			end := start + zoneSize
			if end > rows {
				end = rows
			}
			mn, mx := vec[start], vec[start]
			for _, v := range vec[start+1 : end] {
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
			zc.mins[zi], zc.maxs[zi] = mn, mx
		}
		z.byName[col.Name] = zc
	}
	return z
}

// zoneMapCache memoizes one segment's lazily built ZoneMap. Segments of
// successive table versions share the cache by pointer for as long as the
// segment's rows are unchanged.
type zoneMapCache struct {
	once sync.Once
	zm   *ZoneMap
}
