package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// shardedFake is a fakeSegment that also claims a shard name, like the
// RPC-backed sources do.
type shardedFake struct {
	fakeSegment
	shard string
}

func (s *shardedFake) Shard() string { return s.shard }

// TestSegmentUnavailableDropsAndContinues: a shard exhausting its retries
// surfaces ErrSegmentUnavailable; unlike deadline pressure that drop must
// NOT stop dispatch — the remaining healthy segments still build, and the
// drop is attributed in SegmentDrops.
func TestSegmentUnavailableDropsAndContinues(t *testing.T) {
	fact := buildFact(2000, 4, 10)
	unavailable := fmt.Errorf("shard: segment 1 via node-b: connection refused: %w", ErrSegmentUnavailable)
	sources := fakeSources(fact, map[int]error{1: unavailable}, 1, 1, 1, 1)
	// Wrap the failing source with shard attribution.
	sources[1] = &shardedFake{fakeSegment: *sources[1].(*fakeSegment), shard: "node-b"}

	q := &Query{Fact: fact}
	sam, stats, err := sealed(runStratifiedSegments(q, sources, 99, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Segments 0, 2, and 3 all built: the failure at index 1 did not stop
	// dispatch the way deadline pressure does.
	if stats.SegmentsBuilt != 3 || stats.Segments != 4 {
		t.Fatalf("built %d of %d, want 3 of 4", stats.SegmentsBuilt, stats.Segments)
	}
	if stats.RowsDropped != 500 {
		t.Fatalf("rows dropped = %d, want 500", stats.RowsDropped)
	}
	if sam.TotalWeight() != 1500 {
		t.Fatalf("merged weight = %v, want 1500", sam.TotalWeight())
	}
	if len(stats.SegmentDrops) != 1 {
		t.Fatalf("drops = %+v, want exactly one", stats.SegmentDrops)
	}
	d := stats.SegmentDrops[0]
	if d.ID != 1 || d.Rows != 500 || d.Shard != "node-b" {
		t.Fatalf("drop attribution: %+v", d)
	}
	if d.Reason == "" || !errors.Is(unavailable, ErrSegmentUnavailable) {
		t.Fatalf("drop reason lost: %+v", d)
	}
}

// TestAllSegmentsUnavailable: when every shard is down the query cannot
// answer at all — that is a typed failure, not a silent empty 206.
func TestAllSegmentsUnavailable(t *testing.T) {
	fact := buildFact(1000, 4, 10)
	fails := map[int]error{
		0: fmt.Errorf("a: %w", ErrSegmentUnavailable),
		1: fmt.Errorf("b: %w", ErrSegmentUnavailable),
	}
	q := &Query{Fact: fact}
	_, _, err := runStratifiedSegments(q, fakeSources(fact, fails, 1, 1), 7, 1)
	if !errors.Is(err, ErrSegmentUnavailable) {
		t.Fatalf("err = %v, want ErrSegmentUnavailable", err)
	}
}

// TestPressureDropsAttributed: the existing pressure rungs also attribute
// their drops now (reason "pressure", no shard).
func TestPressureDropsAttributed(t *testing.T) {
	fact := buildFact(2000, 4, 10)
	sources := fakeSources(fact, map[int]error{2: errDeadline()}, 1, 1, 1, 1)
	q := &Query{Fact: fact}
	_, stats, err := runStratifiedSegments(q, sources, 99, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.SegmentDrops) != 2 { // segment 2 (deadline) and 3 (stopped)
		t.Fatalf("drops = %+v", stats.SegmentDrops)
	}
	for _, d := range stats.SegmentDrops {
		if d.Reason != "pressure" || d.Shard != "" {
			t.Fatalf("pressure drop attribution: %+v", d)
		}
	}
}

// TestPlannerRewritesPlan: a Query.Planner sees the locally-planned
// sources and its rewrite is what runs — including the single-segment
// case, which must route through the drop-capable coordinator when a
// planner is installed.
func TestPlannerRewritesPlan(t *testing.T) {
	fact := segmentedFact(t, 1000, 4, 500)
	planner := &recordingPlanner{}
	q := &Query{Fact: fact, Planner: planner}
	sam, stats, err := RunStratifiedExprs(q, ExprsFromNames([]string{"f_group", "f_val"}), 1, 50, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if planner.calls != 1 {
		t.Fatalf("planner called %d times", planner.calls)
	}
	if planner.sawSources == 0 {
		t.Fatal("planner saw no local sources")
	}
	if sam == nil || stats.Segments == 0 {
		t.Fatalf("planned query did not run the segmented path: %+v", stats)
	}
	// Every local source offered to the planner exposes its scan range —
	// the geometry a remote spec needs.
	for _, src := range planner.seen {
		ps, ok := src.(PlannedSegment)
		if !ok {
			t.Fatalf("local source %T does not expose ScanRange", src)
		}
		if from, to := ps.ScanRange(); from >= to {
			t.Fatalf("degenerate scan range [%d, %d)", from, to)
		}
	}
}

type recordingPlanner struct {
	calls      int
	sawSources int
	seen       []SegmentSource
}

func (p *recordingPlanner) PlanSegments(q *Query, exprs []ColumnExpr, qcsWidth, k int, local []SegmentSource) []SegmentSource {
	p.calls++
	p.sawSources += len(local)
	p.seen = append(p.seen, local...)
	return local
}

func errDeadline() error { return context.DeadlineExceeded }
