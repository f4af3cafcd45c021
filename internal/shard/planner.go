package shard

import (
	"context"

	laqy "laqy"
	"laqy/internal/engine"
)

// Planner is the engine.SegmentPlanner for a shard pool: it wraps each
// locally-planned segment source in a remoteSegment bound to the pool's
// assignment for that segment. Planning geometry (rows, morsels, memory)
// stays local — the coordinator holds the same catalog layout as the
// shards — only Build crosses the wire. Install it with
// laqy.DB.SetSegmentPlanner (cmd/laqyd does when started with -shards).
type Planner struct {
	pool *Pool
}

// NewPlanner builds a planner over pool.
func NewPlanner(pool *Pool) *Planner { return &Planner{pool: pool} }

// PlanSegments implements engine.SegmentPlanner.
func (p *Planner) PlanSegments(q *engine.Query, exprs []engine.ColumnExpr, qcsWidth, k int, local []engine.SegmentSource) []engine.SegmentSource {
	if p == nil || p.pool == nil || p.pool.Size() == 0 {
		return local
	}
	schema := make([]string, len(exprs))
	for i, e := range exprs {
		schema[i] = e.Name
	}
	joins := make([]laqy.SegmentJoinSpec, 0, len(q.Joins))
	for _, j := range q.Joins {
		joins = append(joins, laqy.SegmentJoinSpec{
			Dim:     j.Dim.Name,
			FactKey: j.FactKey,
			DimKey:  j.DimKey,
			Filter:  laqy.PredicateSpec(j.Filter),
		})
	}
	pred := laqy.PredicateSpec(q.Filter)

	out := make([]engine.SegmentSource, len(local))
	for i, src := range local {
		ps, ok := src.(engine.PlannedSegment)
		if !ok {
			// Not a local plan (already remote, or a test double): leave it.
			out[i] = src
			continue
		}
		from, to := ps.ScanRange()
		ctx := q.Ctx
		if ctx == nil {
			ctx = context.Background()
		}
		out[i] = &remoteSegment{
			local: ps,
			pool:  p.pool,
			ctx:   ctx,
			spec: laqy.SegmentBuildSpec{
				Table:          q.Fact.Name,
				Segment:        ps.ID(),
				SegmentVersion: ps.Version(),
				ScanFrom:       from,
				ScanTo:         to,
				Predicate:      pred,
				Joins:          joins,
				Schema:         schema,
				QCSWidth:       qcsWidth,
				K:              k,
				// Seed and Workers are filled per Build call by the
				// coordinator's dispatch.
			},
		}
	}
	return out
}
