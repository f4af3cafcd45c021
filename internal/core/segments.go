package core

import (
	"fmt"
	"math"

	"laqy/internal/engine"
	"laqy/internal/governor"
	"laqy/internal/storage"
	"laqy/internal/store"
)

// segmentWatermarks snapshots the fact table's segment layout as per-segment
// provenance for a freshly built (or freshly extended) sample: the sample
// covers every listed segment up to the recorded row count at the recorded
// version. Maintenance later rescans only segments that grew or changed,
// instead of trusting a single table-wide offset.
//
// The marks assume the storage layer's append-only contract: a segment keeps
// its id and start row across table versions and only gains rows
// (storage.AppendColumns). An explicit re-layout (storage.Resegment) breaks
// that assumption, so callers re-segmenting a table with live samples must
// invalidate them first.
func segmentWatermarks(t *storage.Table) []store.SegmentWatermark {
	segs := t.Segments()
	marks := make([]store.SegmentWatermark, 0, len(segs))
	for _, s := range segs {
		marks = append(marks, store.SegmentWatermark{ID: s.ID(), Version: s.Version(), Rows: s.Rows()})
	}
	return marks
}

// watermarkFrom converts an entry's per-segment provenance into a Δ-scan
// plan for engine.RunStratifiedExprs: for each current segment, the
// absolute row to resume sampling from. Under the append-only contract a
// segment's recorded row prefix is still verbatim, so an unchanged segment
// (same rows) resumes at its end — skipped entirely — and a grown segment
// rescans only its suffix beyond the recorded row count. A segment the
// marks never saw, or one whose recorded rows exceed its current extent
// (which append-only storage forbids — it signals a re-layout), is
// conservatively rescanned from its start. Versions ride along as
// provenance but do not gate the resume point: tables rebuilt wholesale
// synthesize version-1 segments at any size.
func watermarkFrom(t *storage.Table, marks []store.SegmentWatermark) map[int]int {
	byID := make(map[int]store.SegmentWatermark, len(marks))
	for _, m := range marks {
		byID[m.ID] = m
	}
	from := make(map[int]int, t.NumSegments())
	for _, s := range t.Segments() {
		m, ok := byID[s.ID()]
		if !ok || m.Rows > s.Rows() {
			from[s.ID()] = s.Start()
			continue
		}
		from[s.ID()] = s.Start() + m.Rows
	}
	return from
}

// dropAttribution names why segments were dropped and which shards (for
// remote sources) were at fault, from the coordinator's per-drop records.
// The reason distinguishes local pressure from shard unavailability so a
// 206 tells the client whether to shrink the query or page the operator;
// the detail lists the dropped segments (capped) with shard attribution.
func dropAttribution(stats engine.Stats) (reason, detail string) {
	detail = fmt.Sprintf("%d of %d segments built; %d rows dropped",
		stats.SegmentsBuilt, stats.Segments, stats.RowsDropped)
	pressure, shard := 0, 0
	for _, d := range stats.SegmentDrops {
		if d.Shard != "" {
			shard++
		} else {
			pressure++
		}
	}
	switch {
	case shard > 0 && pressure > 0:
		reason = "deadline or memory pressure and shard unavailability"
	case shard > 0:
		reason = "shard unavailable"
	default:
		reason = "deadline or memory pressure"
	}
	for i, d := range stats.SegmentDrops {
		if i == 8 {
			detail += fmt.Sprintf("; … %d more", len(stats.SegmentDrops)-i)
			break
		}
		if d.Shard != "" {
			detail += fmt.Sprintf("; seg %d via %s: %s", d.ID, d.Shard, d.Reason)
		} else {
			detail += fmt.Sprintf("; seg %d: %s", d.ID, d.Reason)
		}
	}
	return reason, detail
}

// dropDegradation converts the segment coordinator's dropped-segments
// report into the query's governance record: the answer is labeled with
// the drop_segments rung (attributing shard faults per segment), and
// extensive estimates are extrapolated over the unscanned weight (with the
// CI widened by the same factor), mirroring the stale-serve accounting of
// serveStored.
//
// Boundary cases keep the scales finite: when nothing scanned survived
// (every surviving segment was empty — e.g. a zero-row open segment — or
// the drop report arrived with no scan basis at all) there is nothing to
// extrapolate from, so the answer stays at face value with unit scales and
// zero coverage, labeled; it is never scaled by Inf or NaN.
func dropDegradation(stats engine.Stats, res *Result) {
	if stats.RowsDropped <= 0 {
		return
	}
	reason, detail := dropAttribution(stats)
	res.Degradations = append(res.Degradations, governor.Degradation{
		Step:   governor.DegradeDropSegments,
		Reason: reason,
		Detail: detail,
	})
	covered := float64(stats.RowsScanned)
	total := covered + float64(stats.RowsDropped)
	scale := total / covered
	if covered <= 0 || !(scale > 1) || math.IsInf(scale, 0) {
		// No finite extrapolation basis: label-only degradation.
		res.Coverage = 0
		res.Extrapolate = 1
		res.CIScale = 1
		return
	}
	res.Coverage = covered / total
	res.Extrapolate = scale
	res.CIScale = scale
}
