package laqy

import (
	"context"
	"fmt"

	"laqy/internal/algebra"
	"laqy/internal/engine"
	"laqy/internal/governor"
	"laqy/internal/obs"
	"laqy/internal/sample"
	"laqy/internal/storage"
)

// This file is the shard-serving half of the distributed-segments design
// (docs/SHARDING.md, "Distributed"): a laqyd holding a segment shard
// executes per-segment stratified builds on behalf of a remote
// coordinator. The spec below is the engine-independent description of one
// such build — strings, ints, and interval lists only, so it crosses the
// wire as JSON — and BuildSegment replays it through the leaf build a local
// SegmentSource runs (engine.BuildSegmentSample), making the remote
// reservoir byte-identical to the local one for the same seed.

// IntervalSpec is one closed int64 range of a predicate constraint
// (dictionary codes for string columns, day numbers for dates — the
// engine's uniform value domain).
type IntervalSpec struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
}

// PredicateColumnSpec constrains one column to a union of intervals.
type PredicateColumnSpec struct {
	Column    string         `json:"column"`
	Intervals []IntervalSpec `json:"intervals"`
}

// SegmentJoinSpec describes one dimension join of the segment build's star
// query by table/column name; the serving node resolves the names against
// its own catalog.
type SegmentJoinSpec struct {
	Dim     string                `json:"dim"`
	FactKey string                `json:"fact_key"`
	DimKey  string                `json:"dim_key"`
	Filter  []PredicateColumnSpec `json:"filter,omitempty"`
}

// SegmentBuildSpec describes one per-segment stratified build precisely
// enough for a remote node to reproduce it bit-for-bit: the fact table and
// segment (with the content version the coordinator planned against), the
// clipped scan range, the pushed-down predicate and joins, and the
// sampling parameters including the coordinator-derived segment seed.
type SegmentBuildSpec struct {
	// Table is the fact table name in the serving tenant's catalog.
	Table string `json:"table"`
	// Segment is the segment ID the scan range must fall within.
	Segment int `json:"segment"`
	// SegmentVersion, when non-zero, is the content version the
	// coordinator planned against; a mismatch fails with
	// *SegmentStaleError instead of silently sampling different rows.
	SegmentVersion uint64 `json:"segment_version,omitempty"`
	// ScanFrom/ScanTo bound the scan to absolute fact rows [from, to).
	ScanFrom int `json:"scan_from"`
	ScanTo   int `json:"scan_to"`
	// Predicate is the fact-side filter.
	Predicate []PredicateColumnSpec `json:"predicate,omitempty"`
	// Joins are the dimension joins, probed in order.
	Joins []SegmentJoinSpec `json:"joins,omitempty"`
	// Schema names the sampled expressions (canonical expression names —
	// engine.ExprsFromNames reverses them).
	Schema []string `json:"schema"`
	// QCSWidth is the stratification width (leading Schema columns).
	QCSWidth int `json:"qcs_width"`
	// K is the per-stratum reservoir capacity.
	K int `json:"k"`
	// Seed is the segment's RNG seed, already derived by the coordinator.
	Seed uint64 `json:"seed"`
	// Workers is the intra-segment scan parallelism; it participates in
	// partial-merge order, so the coordinator pins it for reproducibility.
	// 0 lets the serving node choose (no byte-identity guarantee).
	Workers int `json:"workers,omitempty"`
}

// SegmentStaleError reports a segment version mismatch between the
// coordinator's distribution map and the serving node's catalog — the
// node must not sample rows the coordinator didn't plan for.
type SegmentStaleError struct {
	Table   string
	Segment int
	// Want is the version the spec asked for, Have the serving node's.
	Want, Have uint64
}

// Error implements error.
func (e *SegmentStaleError) Error() string {
	return fmt.Sprintf("laqy: segment %s/%d version mismatch: coordinator planned v%d, shard holds v%d",
		e.Table, e.Segment, e.Want, e.Have)
}

// predicateFromSpec rebuilds an algebra predicate from its wire form.
func predicateFromSpec(cols []PredicateColumnSpec) algebra.Predicate {
	pred := algebra.NewPredicate()
	for _, c := range cols {
		var set algebra.Set
		for _, iv := range c.Intervals {
			set = set.Union(algebra.SetOf(algebra.Interval{Lo: iv.Lo, Hi: iv.Hi}))
		}
		pred = pred.With(c.Column, set)
	}
	return pred
}

// PredicateSpec flattens a predicate into its wire form (the inverse of
// the rebuild BuildSegment performs) — the coordinator-side planner uses
// it to serialize a planned query's pushed-down filters.
func PredicateSpec(pred algebra.Predicate) []PredicateColumnSpec {
	cols := pred.Columns()
	out := make([]PredicateColumnSpec, 0, len(cols))
	for _, c := range cols {
		set, _ := pred.Constraint(c)
		ivs := set.Intervals()
		spec := PredicateColumnSpec{Column: c, Intervals: make([]IntervalSpec, 0, len(ivs))}
		for _, iv := range ivs {
			spec.Intervals = append(spec.Intervals, IntervalSpec{Lo: iv.Lo, Hi: iv.Hi})
		}
		out = append(out, spec)
	}
	return out
}

// BuildSegment executes one remote-planned per-segment stratified build
// against this node's catalog: the segment-shard server endpoint
// (/v1/segment/build) lands here. The build is admission-controlled like
// any approximate query (typed *governor.OverloadedError under load) and
// charged against a fresh query memory budget; the result is the partial
// reservoir the coordinator merges with the paper's Algorithm 2/3 algebra,
// plus the engine stats for the shard's side of the accounting.
func (db *DB) BuildSegment(ctx context.Context, spec SegmentBuildSpec) (*sample.Stratified, engine.Stats, error) {
	var zero engine.Stats
	t, err := db.catalog.Table(spec.Table)
	if err != nil {
		return nil, zero, err
	}
	var seg *storage.Segment
	for _, s := range t.Segments() {
		if s.ID() == spec.Segment {
			seg = s
			break
		}
	}
	if seg == nil {
		return nil, zero, fmt.Errorf("laqy: table %s has no segment %d", spec.Table, spec.Segment)
	}
	if spec.SegmentVersion != 0 && seg.Version() != spec.SegmentVersion {
		return nil, zero, &SegmentStaleError{Table: spec.Table, Segment: spec.Segment, Want: spec.SegmentVersion, Have: seg.Version()}
	}
	if spec.ScanFrom < seg.Start() || spec.ScanTo > seg.End() || spec.ScanFrom >= spec.ScanTo {
		return nil, zero, fmt.Errorf("laqy: scan range [%d, %d) outside segment %d rows [%d, %d)",
			spec.ScanFrom, spec.ScanTo, spec.Segment, seg.Start(), seg.End())
	}
	if len(spec.Schema) == 0 || spec.QCSWidth < 0 || spec.QCSWidth > len(spec.Schema) || spec.QCSWidth > sample.MaxQCS {
		return nil, zero, fmt.Errorf("laqy: invalid build schema (%d columns, QCS width %d)", len(spec.Schema), spec.QCSWidth)
	}
	if spec.K <= 0 {
		return nil, zero, fmt.Errorf("laqy: invalid reservoir capacity %d", spec.K)
	}

	joins := make([]engine.Join, 0, len(spec.Joins))
	for _, j := range spec.Joins {
		dim, err := db.catalog.Table(j.Dim)
		if err != nil {
			return nil, zero, err
		}
		joins = append(joins, engine.Join{
			Dim:     dim,
			FactKey: j.FactKey,
			DimKey:  j.DimKey,
			Filter:  predicateFromSpec(j.Filter),
		})
	}

	lease, err := db.gov.Acquire(ctx, governor.WeightApprox)
	if err != nil {
		return nil, zero, err
	}
	defer lease.Release()
	budget := db.gov.NewQueryBudget()
	defer budget.ReleaseAll()

	q := engine.Query{
		Fact:     t,
		Filter:   predicateFromSpec(spec.Predicate),
		Joins:    joins,
		ScanFrom: spec.ScanFrom,
		ScanTo:   spec.ScanTo,
		Ctx:      obs.WithRegistry(ctx, db.reg),
		Budget:   budget,
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = db.cfg.Workers
	}
	// This IS one segment's build: run the leaf directly, so the bytes match
	// what a local SegmentSource.Build would produce. A one-worker build is
	// sealed here, for the frame encoder.
	part, st, err := engine.BuildSegmentSample(&q, engine.ExprsFromNames(spec.Schema), spec.QCSWidth, spec.K, spec.Seed, workers)
	if err != nil {
		return nil, st, err
	}
	return sample.Seal(part, workers), st, nil
}

// SetSegmentPlanner installs (or, with nil, removes) a segment planner
// applied to every subsequent query: the distributed seam. cmd/laqyd wires
// the shard pool's planner here when started with -shards.
func (db *DB) SetSegmentPlanner(p engine.SegmentPlanner) {
	db.plannerMu.Lock()
	db.planner = p
	db.plannerMu.Unlock()
}

// segmentPlanner returns the installed planner (nil when none).
func (db *DB) segmentPlanner() engine.SegmentPlanner {
	db.plannerMu.RLock()
	defer db.plannerMu.RUnlock()
	return db.planner
}
