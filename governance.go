package laqy

import (
	"time"

	"laqy/internal/governor"
)

// This file is the public face of the resource governor
// (internal/governor): configuration, typed errors, degradation records,
// and live stats. See docs/GOVERNANCE.md for the model and tuning guide.

// GovernorConfig tunes admission control, memory budgeting, and the
// deadline degradation ladder. The governor is always on; the zero value
// gives production-safe defaults (generous slot pool, deep queue, no queue
// timeout, no memory limits).
type GovernorConfig struct {
	// Slots is the total admission weight available concurrently (an
	// exact query holds 2 slots, an approximate query 1). 0 defaults to
	// 2×GOMAXPROCS, floor 4.
	Slots int
	// QueueDepth bounds the admission wait queue; arrivals beyond it are
	// rejected immediately with an *OverloadedError (reason "queue
	// full"). 0 defaults to 8×Slots.
	QueueDepth int
	// QueueTimeout bounds how long an admission may wait for a slot
	// before rejection (reason "queue timeout"). 0 waits as long as the
	// query's context allows.
	QueueTimeout time.Duration
	// MemoryBytes is the global soft budget for transient query memory —
	// reservoir builds and group-by hash tables. 0 disables global
	// accounting.
	MemoryBytes int64
	// QueryMemoryBytes is the per-query soft budget. 0 disables
	// per-query accounting.
	QueryMemoryBytes int64
}

// ErrOverloaded identifies queries refused (or timed out) at the
// admission door rather than failed while executing: errors.Is(err,
// laqy.ErrOverloaded). Overload is retryable by definition; errors.As
// with *OverloadedError recovers the suggested backoff.
var ErrOverloaded = governor.ErrOverloaded

// OverloadedError is the typed admission rejection (wraps ErrOverloaded);
// RetryAfter carries the governor's backoff suggestion.
type OverloadedError = governor.OverloadedError

// ErrMemoryBudget identifies queries failed — never the process — because
// their transient memory would have exceeded the configured budget and
// degradation (shrinking the reservoir) could not absorb the overrun.
var ErrMemoryBudget = governor.ErrMemoryBudget

// MemoryBudgetError is the typed memory-budget denial (wraps
// ErrMemoryBudget).
type MemoryBudgetError = governor.MemoryBudgetError

// Degradation records one rung of the degradation ladder taken for a
// query; Result.Degradations lists them so a degraded answer is always
// labeled.
type Degradation = governor.Degradation

// DegradeStep identifies a degradation rung (see the Degrade* constants).
type DegradeStep = governor.DegradeStep

// The degradation ladder's rungs, in the order the governor walks them
// under deadline pressure, plus the orthogonal memory and retry rungs.
const (
	// DegradeExactToApprox answered an exact-mode query from a sample
	// because the predicted exact scan would miss the deadline.
	DegradeExactToApprox = governor.DegradeExactToApprox
	// DegradeSkipDelta served a partially-covering stored sample as-is
	// (wider CI, extrapolated totals) instead of Δ-sampling the missing
	// range.
	DegradeSkipDelta = governor.DegradeSkipDelta
	// DegradeShrinkReservoir reduced the reservoir capacity K to fit the
	// memory budget instead of failing the query.
	DegradeShrinkReservoir = governor.DegradeShrinkReservoir
	// DegradeSkipRetry skipped a quality retry (APPROX ERROR resize)
	// because the deadline ran out, returning the best-so-far answer.
	DegradeSkipRetry = governor.DegradeSkipRetry
)

// GovernorStats is a point-in-time view of the governor for dashboards
// and the shell's \governor command.
type GovernorStats struct {
	// Slots and SlotsInUse describe the admission slot pool.
	Slots, SlotsInUse int
	// Queued and QueueDepth describe the admission wait queue.
	Queued, QueueDepth int
	// MemUsed and MemLimit describe the global memory pool (MemLimit 0
	// when accounting is disabled); QueryMemLimit is the per-query cap.
	MemUsed, MemLimit, QueryMemLimit int64
	// MeanHold is the smoothed slot-hold time behind RetryAfter
	// suggestions on rejections.
	MeanHold time.Duration
}

// GovernorStats snapshots the governor.
func (db *DB) GovernorStats() GovernorStats {
	s := db.gov.Stats()
	return GovernorStats{
		Slots:         s.Slots,
		SlotsInUse:    s.InUse,
		Queued:        s.Queued,
		QueueDepth:    s.QueueDepth,
		MemUsed:       s.MemUsed,
		MemLimit:      s.MemLimit,
		QueryMemLimit: s.QueryMemLimit,
		MeanHold:      s.MeanHold,
	}
}

// SetScanCostNanos pins the governor's scan cost model to nsPerRow and
// freezes it against further online updates, so deadline pressure can be
// simulated without sleeping; passing 0 unfreezes and resets the model.
// This is the test seam behind the chaos harnesses (the root storm and
// laqyd's connection chaos) — production deployments leave the model to
// its EWMA of observed scans.
func (db *DB) SetScanCostNanos(nsPerRow float64) { db.gov.SetScanCost(nsPerRow) }

// degradationsString renders a degradation list for trace annotations.
func degradationsString(degs []Degradation) string {
	out := ""
	for i, d := range degs {
		if i > 0 {
			out += ", "
		}
		out += d.String()
	}
	return out
}
