package storage

import (
	"sync"
	"sync/atomic"
)

// ZoneMap holds per-zone min/max summaries for every column of one segment
// (Segment.ZoneMap): the lightweight scan index ("small materialized
// aggregates") that lets the engine's morsel driver skip chunks whose value
// ranges cannot intersect a predicate, and take a compare-free fast path
// through chunks entirely inside it.
//
// Zones are fixed-width, segment-aligned row ranges of DefaultMorselSize
// rows; an arbitrary row range inside the segment is summarized by folding
// the zones it overlaps, so pruning stays exact when the scan starts
// mid-segment (ScanFrom > 0 during incremental Δ-scans). The engine cuts
// its morsels at segment boundaries, so every morsel reads one map.
//
// A ZoneMap is immutable after construction and safe for concurrent reads.
// It summarizes the segment version it was built from: an append that lands
// rows in the open segment gives it a fresh cache (AppendColumns), so a
// grown segment never serves a stale summary. The fresh cache extends the
// previous version's map, when there is one, by the appended rows alone.
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

// extend returns the map of z's segment grown to rows rows, from the
// segment's vectors cols (one per field, segment-relative), which must
// extend those z was built from: z's zones are copied and only the rows
// past z's are read, folded into z's last zone when it is partial and into
// new zones after it. z is not changed. Sealed segments carry their maps
// across appends; the open segment's map is extended by the appended rows.
func (z *ZoneMap) extend(fields Schema, cols [][]int64, rows int) *ZoneMap {
	zones := (rows + z.zoneSize - 1) / z.zoneSize
	nz := &ZoneMap{
		zoneSize: z.zoneSize,
		base:     z.base,
		rows:     rows,
		byName:   make(map[string]zoneCol, len(fields)),
	}
	for c, f := range fields {
		old := z.byName[f.Name]
		zc := zoneCol{mins: make([]int64, zones), maxs: make([]int64, zones)}
		copy(zc.mins, old.mins)
		copy(zc.maxs, old.maxs)
		vec := cols[c][:rows]
		for from := z.rows; from < rows; {
			zi := from / z.zoneSize
			to := min((zi+1)*z.zoneSize, rows)
			mn, mx := vec[from], vec[from]
			if from > zi*z.zoneSize { // the rest of a partial zone
				mn, mx = zc.mins[zi], zc.maxs[zi]
			}
			for _, v := range vec[from:to] {
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
			zc.mins[zi], zc.maxs[zi] = mn, mx
			from = to
		}
		nz.byName[f.Name] = zc
	}
	return nz
}

// zoneMapCache memoizes one segment's lazily built ZoneMap. Segments of
// successive table versions share the cache by pointer for as long as the
// segment's rows are unchanged. built is the map once the build has run;
// from, when non-nil, is a map of a shorter version of the same open
// segment, which the build extends instead of reading the whole segment.
type zoneMapCache struct {
	once  sync.Once
	built atomic.Pointer[ZoneMap]
	from  *ZoneMap
}

// summary is the newest map of the segment's rows so far: the built one,
// else the one the build would extend (nil if neither).
func (c *zoneMapCache) summary() *ZoneMap {
	if zm := c.built.Load(); zm != nil {
		return zm
	}
	return c.from
}
