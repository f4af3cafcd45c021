package core

import (
	"fmt"
	"math"

	"laqy/internal/engine"
	"laqy/internal/governor"
	"laqy/internal/obs"
	"laqy/internal/sample"
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

// buildSample runs one stratified sample build of q — schema captured, the
// first qcsWidth columns stratifying, k per stratum, each fact segment
// resumed at from (nil: at its start) — under a child span
// named span carrying attrs and the build's row counts, so the engine's own
// pipeline spans nest under the sampler phase that triggered them. It
// returns the build as an answer (Sample and Stats) and reports whether the
// build dropped segments (deadline or memory pressure, an unavailable
// shard): such a sample covers only part of q's rows, the answer carries
// dropDegradation's label and scale, and no caller stores, merges or
// installs it. Online builds, Δ-builds (partial reuse and append
// maintenance alike) and support repairs all go through here.
func buildSample(q *engine.Query, schema sample.Schema, qcsWidth, k int, seed uint64, workers int,
	from map[int]int, span string, attrs ...obs.Attr) (res *Result, dropped bool, err error) {

	sp := obs.SpanFrom(q.Ctx).Start(span) // nil when tracing is off
	if sp != nil {
		for _, a := range attrs {
			sp.SetAttr(a.Key, a.Value)
		}
		traced := *q
		traced.Ctx = obs.WithSpan(q.Ctx, sp)
		q = &traced
	}
	sam, stats, err := engine.RunStratifiedExprs(q, engine.ExprsFromNames(schema), qcsWidth, k, seed, workers, from)
	if sp != nil {
		sp.SetAttrInt("rows_scanned", stats.RowsScanned)
		sp.SetAttrInt("rows_selected", stats.RowsSelected)
		sp.End()
	}
	if err != nil {
		return nil, false, err
	}
	res = &Result{Sample: sam, Stats: stats}
	return res, dropDegradation(stats, res), nil
}

// dropDegradation is the dropped-segment rule, and the one place core
// decides that a build dropped segments: when stats report dropped rows it
// labels res with the drop_segments rung (attributing shard faults per
// segment), scales it by (scanned+dropped)/scanned — the inverse of the
// share of rows the build scanned — and reports true.
//
// Boundary cases keep the scale finite: when nothing scanned survived
// (every surviving segment was empty — e.g. a zero-row open segment — or
// the drop report arrived with no scan basis at all) there is nothing to
// extrapolate from, so the answer stays at face value (scale 1), labeled;
// it is never scaled by Inf or NaN.
func dropDegradation(stats engine.Stats, res *Result) bool {
	if stats.RowsDropped <= 0 {
		return false
	}
	reason, detail := dropAttribution(stats)
	covered := float64(stats.RowsScanned)
	scale := (covered + float64(stats.RowsDropped)) / covered
	if covered <= 0 || !(scale > 1) || math.IsInf(scale, 0) {
		scale = 1 // no finite extrapolation basis: label-only degradation
	}
	res.underCover(scale, governor.Degradation{
		Step:   governor.DegradeDropSegments,
		Reason: reason,
		Detail: detail,
	})
	return true
}
