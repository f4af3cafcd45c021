package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	laqy "laqy"
	"laqy/internal/engine"
	"laqy/internal/obs"
	"laqy/internal/sample"
)

// remoteSegment is the RPC-backed engine.SegmentSource: planning geometry
// (ID, Version, Rows, Morsels, MemEstimate) delegates to the wrapped
// local plan — the coordinator's admission and accounting stay exact —
// while Build runs on the segment's assigned shard nodes with the
// failure ladder: per-attempt timeouts, bounded jittered retries
// rotating across leader and followers, and a hedged read to a follower
// when the primary dawdles past its latency percentile. When the ladder
// is exhausted, Build returns an error wrapping
// engine.ErrSegmentUnavailable and the coordinator drops this segment's
// weight instead of failing the query.
type remoteSegment struct {
	local engine.PlannedSegment
	pool  *Pool
	ctx   context.Context
	spec  laqy.SegmentBuildSpec

	// shard names the node that served (or last failed) the build, for
	// span/degradation attribution; atomic because the coordinator reads
	// it from the accounting loop after the build worker wrote it.
	shard atomic.Value // string
}

func (r *remoteSegment) ID() int                       { return r.local.ID() }
func (r *remoteSegment) Version() uint64               { return r.local.Version() }
func (r *remoteSegment) Rows() int                     { return r.local.Rows() }
func (r *remoteSegment) Morsels() int                  { return r.local.Morsels() }
func (r *remoteSegment) MemEstimate(workers int) int64 { return r.local.MemEstimate(workers) }
func (r *remoteSegment) ScanRange() (from, to int)     { return r.local.ScanRange() }

// Shard implements engine.ShardedSource.
func (r *remoteSegment) Shard() string {
	if v, ok := r.shard.Load().(string); ok {
		return v
	}
	return ""
}

// Build implements engine.SegmentSource over RPC.
func (r *remoteSegment) Build(workers int, seed uint64) (sample.Part, engine.Stats, error) {
	var zero engine.Stats
	spec := r.spec
	spec.Seed = seed
	spec.Workers = workers
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, zero, fmt.Errorf("shard: encoding build spec: %w", err)
	}
	ctx := r.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	now := obs.Clock()
	candidates := r.pool.route(r.ID(), now)
	if len(candidates) == 0 {
		return nil, zero, fmt.Errorf("shard: no nodes configured for segment %d: %w", r.ID(), engine.ErrSegmentUnavailable)
	}

	var (
		sam   *sample.Builder
		stats engine.Stats
	)
	retryErr := r.pool.opt.Retry.Do(ctx, func(attempt int) (bool, error) {
		if attempt > 1 {
			r.pool.met.retries.Inc()
		}
		primary, hedge := r.pickPair(candidates, attempt)
		r.shard.Store(primary.name)
		s, st, err := r.attemptHedged(ctx, primary, hedge, body, seed)
		if err != nil {
			// Context expiry is the query's deadline, not the shard's
			// failure mode: surface it so the coordinator applies its own
			// pressure rung.
			if ctx.Err() != nil {
				return true, ctx.Err()
			}
			return false, err
		}
		sam, stats = s, st
		return true, nil
	})
	if retryErr != nil {
		if ctx.Err() != nil {
			return nil, zero, ctx.Err()
		}
		r.pool.met.dropped.Inc()
		return nil, zero, fmt.Errorf("shard: segment %d via %s: %v: %w",
			r.ID(), r.Shard(), retryErr, engine.ErrSegmentUnavailable)
	}
	return sam, stats, nil
}

// pickPair chooses the attempt's primary node and (when hedging is
// possible) a distinct hedge target. Attempts rotate through the
// candidate list so consecutive retries of a dead leader move to its
// followers; breaker-refusing nodes are skipped when an allowed node
// exists further along.
func (r *remoteSegment) pickPair(candidates []*node, attempt int) (primary, hedge *node) {
	now := obs.Clock()
	n := len(candidates)
	start := (attempt - 1) % n
	for i := 0; i < n; i++ {
		c := candidates[(start+i)%n]
		if primary == nil && c.h.allow(now) {
			primary = c
			continue
		}
		if primary != nil && hedge == nil && c != primary {
			hedge = c
		}
	}
	if primary == nil {
		// Every breaker refused: last resort, try the rotation's pick
		// anyway — a query-serving attempt beats returning nothing, and a
		// success will close the breaker.
		primary = candidates[start]
		if n > 1 {
			hedge = candidates[(start+1)%n]
		}
	}
	return primary, hedge
}

// hedgeDelay resolves when to launch the hedged request: the configured
// delay, or ×2 the primary's smoothed latency (floored) when adaptive.
func (r *remoteSegment) hedgeDelay(primary *node) (time.Duration, bool) {
	d := r.pool.opt.HedgeAfter
	if d < 0 {
		return 0, false
	}
	if d == 0 {
		ewma := primary.h.ewma()
		if ewma <= 0 {
			d = 100 * time.Millisecond
		} else {
			d = 2 * ewma
			if d < 20*time.Millisecond {
				d = 20 * time.Millisecond
			}
		}
	}
	return d, true
}

// attemptHedged runs one attempt: the primary request immediately, a
// hedged duplicate to a follower if the primary has not answered within
// the hedge delay, first success wins, the loser is canceled and joined
// before returning — no goroutine outlives the attempt.
func (r *remoteSegment) attemptHedged(ctx context.Context, primary, hedgeNode *node, body []byte, seed uint64) (*sample.Builder, engine.Stats, error) {
	type outcome struct {
		sam   *sample.Builder
		st    engine.Stats
		node  *node
		err   error
		hedge bool
	}
	actx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer wg.Wait() // join both requests before returning (runs after cancel)
	defer cancel()

	results := make(chan outcome, 2) // buffered: losers never block on send
	launch := func(n *node, hedged bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, st, err := r.pool.buildOnce(actx, n, body, seed)
			results <- outcome{sam: s, st: st, node: n, err: err, hedge: hedged}
		}()
	}
	launch(primary, false)

	inflight := 1
	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if delay, ok := r.hedgeDelay(primary); ok && hedgeNode != nil {
		hedgeTimer = time.NewTimer(delay)
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}

	var firstErr error
	for {
		select {
		case <-hedgeC:
			hedgeC = nil
			r.pool.met.hedges.Inc()
			launch(hedgeNode, true)
			inflight++
		case out := <-results:
			inflight--
			if out.err == nil {
				r.shard.Store(out.node.name)
				if out.hedge {
					r.pool.met.hedgeWins.Inc()
				}
				return out.sam, out.st, nil
			}
			if firstErr == nil {
				firstErr = out.err
			}
			if inflight == 0 {
				return nil, engine.Stats{}, firstErr
			}
			// The other request is still running; wait it out — it may
			// yet succeed. Disable further hedging.
			hedgeC = nil
		case <-actx.Done():
			return nil, engine.Stats{}, actx.Err()
		}
	}
}
