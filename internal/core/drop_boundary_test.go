package core

import (
	"math"
	"strings"
	"testing"

	"laqy/internal/engine"
	"laqy/internal/governor"
)

// TestDropDegradationBoundaries pins the extrapolation arithmetic at its
// edges: every combination of scanned/dropped rows must produce a finite
// Scale and a drop_segments label whenever rows were actually dropped —
// never NaN, never Inf, never a silent answer — and leave the result
// untouched (Scale 0, no label) when none were.
func TestDropDegradationBoundaries(t *testing.T) {
	cases := []struct {
		name      string
		scanned   int64
		dropped   int64
		wantLabel bool
		wantScale float64
	}{
		{"no drops", 1000, 0, false, 0},
		{"half dropped", 1000, 1000, true, 2},
		{"all segments dropped", 0, 1000, true, 1},
		{"zero-row open segment survived", 0, 500, true, 1},
		{"negative scan basis", -5, 100, true, 1},
		{"tiny survivor", 1, 1 << 40, true, 1 + float64(1<<40)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stats := engine.Stats{
				RowsScanned:   tc.scanned,
				RowsDropped:   tc.dropped,
				Segments:      4,
				SegmentsBuilt: 2,
			}
			var res Result
			if got := dropDegradation(stats, &res); got != tc.wantLabel {
				t.Fatalf("dropped = %v, want %v", got, tc.wantLabel)
			}
			if math.IsNaN(res.Scale) || math.IsInf(res.Scale, 0) {
				t.Fatalf("scale is not finite: %v (res %+v)", res.Scale, res)
			}
			if res.Scale != tc.wantScale {
				t.Fatalf("scale = %v, want %v", res.Scale, tc.wantScale)
			}
			if tc.wantLabel != (len(res.Degradations) == 1) {
				t.Fatalf("degradations = %+v, want label %v", res.Degradations, tc.wantLabel)
			}
			if tc.wantLabel && res.Degradations[0].Step != governor.DegradeDropSegments {
				t.Fatalf("step = %v", res.Degradations[0].Step)
			}
		})
	}
}

// TestDropAttributionNamesShards: drops from RPC shards carry the shard
// name and failure into the degradation detail, pressure drops stay
// anonymous, and mixed causes are distinguished in the reason.
func TestDropAttributionNamesShards(t *testing.T) {
	stats := engine.Stats{
		RowsScanned: 100, RowsDropped: 200, Segments: 4, SegmentsBuilt: 2,
		SegmentDrops: []engine.SegmentDrop{
			{ID: 1, Rows: 100, Shard: "node-b", Reason: "connection refused"},
			{ID: 3, Rows: 100, Reason: "pressure"},
		},
	}
	reason, detail := dropAttribution(stats)
	if reason != "deadline or memory pressure and shard unavailability" {
		t.Fatalf("mixed reason = %q", reason)
	}
	for _, want := range []string{"seg 1 via node-b: connection refused", "seg 3: pressure", "2 of 4 segments built"} {
		if !strings.Contains(detail, want) {
			t.Fatalf("detail %q missing %q", detail, want)
		}
	}

	// Shard-only drops get the operator-facing reason.
	stats.SegmentDrops = stats.SegmentDrops[:1]
	if reason, _ := dropAttribution(stats); reason != "shard unavailable" {
		t.Fatalf("shard-only reason = %q", reason)
	}
	// No records at all (legacy accounting) defaults to pressure.
	stats.SegmentDrops = nil
	if reason, _ := dropAttribution(stats); reason != "deadline or memory pressure" {
		t.Fatalf("default reason = %q", reason)
	}
}

// TestDropAttributionCapsDetail: a mass outage (many dropped segments)
// must not turn the degradation detail into an unbounded string.
func TestDropAttributionCapsDetail(t *testing.T) {
	stats := engine.Stats{RowsScanned: 1, RowsDropped: 100, Segments: 40, SegmentsBuilt: 0}
	for i := 0; i < 40; i++ {
		stats.SegmentDrops = append(stats.SegmentDrops,
			engine.SegmentDrop{ID: i, Rows: 1, Shard: "s", Reason: "down"})
	}
	_, detail := dropAttribution(stats)
	if !strings.Contains(detail, "… 32 more") {
		t.Fatalf("detail not capped: %q", detail)
	}
	if strings.Count(detail, "seg ") != 8 {
		t.Fatalf("detail lists %d segments, want 8", strings.Count(detail, "seg "))
	}
}
