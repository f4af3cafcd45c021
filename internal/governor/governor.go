// Package governor is LAQy's resource-governance layer: admission control
// (a weighted slot semaphore with a bounded FIFO wait queue), soft memory
// budgeting for transient query state, a deadline-driven degradation
// vocabulary, and a bounded-retry policy. It sits between the public API
// (laqy.QueryContext) and the planner/executor so that under overload the
// engine sheds or degrades work instead of oversubscribing the worker pool
// and timing everything out — the LAQy accuracy-for-latency trade, pulled
// automatically.
//
// The package is nil-safe throughout: a nil *Governor admits everything,
// a nil *Lease releases nothing, a nil *QueryBudget reserves nothing. The
// zero-configuration path therefore costs one branch per call, and the
// governance layer can be threaded unconditionally through the query
// lifecycle.
//
// See docs/GOVERNANCE.md for the admission model, the degradation ladder,
// and tuning guidance.
package governor

import (
	"context"
	"runtime"
	"sync"
	"time"

	"laqy/internal/obs"
)

// Config tunes a Governor. The zero value of every field selects a
// production-safe default; see normalize.
type Config struct {
	// Slots is the total admission weight available concurrently. An exact
	// query holds WeightExact (2) slots, an approximate query WeightApprox
	// (1), so Slots bounds the number of simultaneously executing queries
	// by cost. Default: 2×GOMAXPROCS, floor 4.
	Slots int
	// QueueDepth bounds the admission wait queue. A query arriving when
	// the queue is full is rejected immediately with an *OverloadedError
	// (reason "queue full"). Default: 8×Slots.
	QueueDepth int
	// QueueTimeout bounds how long an admission may wait for a slot before
	// being rejected with an *OverloadedError (reason "queue timeout").
	// Zero means wait as long as the query's context allows.
	QueueTimeout time.Duration
	// MemoryBytes is the global soft budget for transient query memory
	// (reservoir Δ-builds, group-by hash tables). Zero disables global
	// accounting.
	MemoryBytes int64
	// QueryMemoryBytes is the per-query soft budget. Zero disables
	// per-query accounting.
	QueryMemoryBytes int64
}

// Admission weights: an exact query scans the full fact table and uses the
// whole worker pool, so it charges more of the slot budget than an
// approximate query, which mostly serves (or incrementally extends) a
// stored sample.
const (
	WeightExact  = 2
	WeightApprox = 1
)

// normalize fills zero fields with defaults and returns the result.
func (c Config) normalize() Config {
	if c.Slots <= 0 {
		c.Slots = 2 * runtime.GOMAXPROCS(0)
		if c.Slots < 4 {
			c.Slots = 4
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8 * c.Slots
	}
	if c.QueueTimeout < 0 {
		c.QueueTimeout = 0
	}
	if c.MemoryBytes < 0 {
		c.MemoryBytes = 0
	}
	if c.QueryMemoryBytes < 0 {
		c.QueryMemoryBytes = 0
	}
	return c
}

// waiter is one queued admission.
type waiter struct {
	weight int
	// ready is closed by grantLocked once the waiter's weight has been
	// charged to inUse. After close, ownership of the weight belongs to
	// the waiter (it must release it, even if it no longer wants it).
	ready chan struct{}
}

// Governor is the admission controller plus memory pool. Create one with
// New; the nil Governor admits everything and accounts nothing.
type Governor struct {
	slots        int
	queueDepth   int
	queueTimeout time.Duration

	mu      sync.Mutex
	inUse   int
	waiters []*waiter
	// meanHoldNs is an EWMA of observed slot-hold durations, the basis of
	// the RetryAfter suggestion on rejections.
	meanHoldNs float64

	// memory pool (guarded by mu; reservations are morsel-grained, not
	// row-grained, so a mutex is cheap enough and keeps obscheck happy).
	memLimit      int64
	memUsed       int64
	queryMemLimit int64

	// cost model: EWMA of observed scan cost, ns per row, used by the
	// planner to predict deadline pressure. costFrozen pins a stubbed
	// value installed via SetScanCost (tests simulate slow scans without
	// sleeping).
	scanNsPerRow float64
	costFrozen   bool

	// instruments (nil until SetObs; nil instruments are no-ops).
	admitted    *obs.Counter
	rejected    *obs.Counter
	timeouts    *obs.Counter
	canceled    *obs.Counter
	memDenied   *obs.Counter
	waitSeconds *obs.Histogram
	slotsInUse  *obs.Gauge
	queueGauge  *obs.Gauge
	memGauge    *obs.Gauge
	reg         *obs.Registry
}

// New builds a Governor from cfg (normalized).
func New(cfg Config) *Governor {
	cfg = cfg.normalize()
	return &Governor{
		slots:         cfg.Slots,
		queueDepth:    cfg.QueueDepth,
		queueTimeout:  cfg.QueueTimeout,
		memLimit:      cfg.MemoryBytes,
		queryMemLimit: cfg.QueryMemoryBytes,
	}
}

// SetObs wires the governor's instruments into reg. Not safe to call
// concurrently with admissions; call it during setup, as laqy.Open does.
func (g *Governor) SetObs(reg *obs.Registry) {
	g.reg = reg
	g.admitted = reg.Counter(obs.MGovAdmitted)
	g.rejected = reg.Counter(obs.MGovRejected)
	g.timeouts = reg.Counter(obs.MGovQueueTimeouts)
	g.canceled = reg.Counter(obs.MGovCanceled)
	g.memDenied = reg.Counter(obs.MGovMemDenied)
	g.waitSeconds = reg.Histogram(obs.MGovWaitSeconds)
	g.slotsInUse = reg.Gauge(obs.MGovSlotsInUse)
	g.queueGauge = reg.Gauge(obs.MGovQueueDepth)
	g.memGauge = reg.Gauge(obs.MGovMemReserved)
	reg.Gauge(obs.MGovSlotsTotal).Set(int64(g.slots))
}

// Lease is a granted admission. Release returns the weight to the pool;
// it is idempotent and the nil Lease is a valid no-op (what a nil Governor
// hands out).
type Lease struct {
	g      *Governor
	weight int
	start  time.Time
	// Waited is how long the admission queued before being granted (zero
	// for fast-path admissions). Surfaced on the EXPLAIN ANALYZE
	// "admission" span.
	Waited time.Duration
	once   sync.Once
}

// Release returns the lease's weight to the governor and feeds the
// observed hold time into the RetryAfter estimator.
func (l *Lease) Release() {
	if l == nil || l.g == nil {
		return
	}
	l.once.Do(func() {
		hold := obs.Since(l.start)
		l.g.release(l.weight, hold)
	})
}

// Acquire admits a query of the given weight, blocking in a bounded FIFO
// queue when the slot pool is exhausted. It returns a typed
// *OverloadedError (wrapping ErrOverloaded) when the queue is full or the
// queue timeout elapses, and ctx.Err() when the caller gives up first.
// A nil Governor admits immediately with a nil Lease.
func (g *Governor) Acquire(ctx context.Context, weight int) (*Lease, error) {
	if g == nil {
		return nil, nil
	}
	if weight < 1 {
		weight = 1
	}
	if weight > g.slots {
		// A query heavier than the whole pool must still be runnable:
		// charge the full pool rather than deadlocking.
		weight = g.slots
	}
	start := obs.Clock()

	g.mu.Lock()
	// Fast path: capacity free and nobody queued ahead (FIFO fairness —
	// a newcomer must not overtake parked waiters).
	if len(g.waiters) == 0 && g.inUse+weight <= g.slots {
		g.inUse += weight
		inUse := g.inUse
		g.mu.Unlock()
		g.slotsInUse.Set(int64(inUse))
		g.admitted.Inc()
		g.waitSeconds.Observe(0)
		return &Lease{g: g, weight: weight, start: start}, nil
	}
	// Bounded queue: reject immediately when full.
	if len(g.waiters) >= g.queueDepth {
		queued := len(g.waiters)
		retry := g.retryAfterLocked(queued)
		g.mu.Unlock()
		g.rejected.Inc()
		return nil, &OverloadedError{
			Reason:     "queue full",
			Queued:     queued,
			QueueLimit: g.queueDepth,
			Slots:      g.slots,
			RetryAfter: retry,
		}
	}
	w := &waiter{weight: weight, ready: make(chan struct{})}
	g.waiters = append(g.waiters, w)
	depth := len(g.waiters)
	g.mu.Unlock()
	g.queueGauge.Set(int64(depth))

	var timeoutC <-chan time.Time
	if g.queueTimeout > 0 {
		timer := time.NewTimer(g.queueTimeout)
		defer timer.Stop()
		timeoutC = timer.C
	}

	select {
	case <-w.ready:
		waited := obs.Since(start)
		g.admitted.Inc()
		g.waitSeconds.Observe(waited)
		return &Lease{g: g, weight: weight, start: obs.Clock(), Waited: waited}, nil

	case <-ctx.Done():
		if g.abandon(w) {
			g.canceled.Inc()
			return nil, ctx.Err()
		}
		// Granted concurrently with cancellation: the weight is ours, so
		// hand it straight back before reporting the cancellation.
		g.release(w.weight, 0)
		g.canceled.Inc()
		return nil, ctx.Err()

	case <-timeoutC:
		if g.abandon(w) {
			waited := obs.Since(start)
			g.mu.Lock()
			queued := len(g.waiters)
			retry := g.retryAfterLocked(queued)
			g.mu.Unlock()
			g.timeouts.Inc()
			return nil, &OverloadedError{
				Reason:     "queue timeout",
				Waited:     waited,
				Queued:     queued,
				QueueLimit: g.queueDepth,
				Slots:      g.slots,
				RetryAfter: retry,
			}
		}
		// Granted at the same instant the timer fired: keep the slot.
		waited := obs.Since(start)
		g.admitted.Inc()
		g.waitSeconds.Observe(waited)
		return &Lease{g: g, weight: weight, start: obs.Clock(), Waited: waited}, nil
	}
}

// abandon removes w from the wait queue. It returns false when w is no
// longer queued — meaning grantLocked already charged its weight and
// closed ready, so the caller owns (and must release) the weight.
func (g *Governor) abandon(w *waiter) bool {
	g.mu.Lock()
	for i, q := range g.waiters {
		if q == w {
			g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
			depth := len(g.waiters)
			// Removing a parked heavy waiter can unblock lighter ones
			// behind it.
			g.grantLocked()
			inUse := g.inUse
			g.mu.Unlock()
			g.queueGauge.Set(int64(depth))
			g.slotsInUse.Set(int64(inUse))
			return true
		}
	}
	g.mu.Unlock()
	return false
}

// release returns weight to the pool, feeds the hold-time EWMA, and grants
// any waiters that now fit.
func (g *Governor) release(weight int, hold time.Duration) {
	g.mu.Lock()
	g.inUse -= weight
	if g.inUse < 0 {
		g.inUse = 0 // invariant: paired Release; clamp defensively
	}
	if hold > 0 {
		const alpha = 0.2
		h := float64(hold.Nanoseconds())
		if g.meanHoldNs == 0 {
			g.meanHoldNs = h
		} else {
			g.meanHoldNs += alpha * (h - g.meanHoldNs)
		}
	}
	g.grantLocked()
	inUse := g.inUse
	depth := len(g.waiters)
	g.mu.Unlock()
	g.slotsInUse.Set(int64(inUse))
	g.queueGauge.Set(int64(depth))
}

// grantLocked admits queued waiters in FIFO order while capacity lasts.
// Caller holds g.mu.
func (g *Governor) grantLocked() {
	for len(g.waiters) > 0 {
		w := g.waiters[0]
		if g.inUse+w.weight > g.slots {
			break // strict FIFO: never let a light waiter overtake a heavy one
		}
		g.inUse += w.weight
		g.waiters = g.waiters[1:]
		close(w.ready)
	}
}

// retryAfterLocked estimates a polite backoff from the EWMA slot-hold time
// and the queue depth at rejection: roughly "how long until the queue
// ahead of you drains one pool's worth of work". Caller holds g.mu.
func (g *Governor) retryAfterLocked(queued int) time.Duration {
	hold := g.meanHoldNs
	if hold == 0 {
		hold = float64(50 * time.Millisecond)
	}
	est := time.Duration(hold * float64(queued+1) / float64(g.slots))
	const (
		minRetry = 10 * time.Millisecond
		maxRetry = 5 * time.Second
	)
	if est < minRetry {
		est = minRetry
	}
	if est > maxRetry {
		est = maxRetry
	}
	return est
}

// Stats is a point-in-time view of the governor for the shell's \governor
// command and for tests.
type Stats struct {
	// Slots and InUse describe the slot pool.
	Slots, InUse int
	// Queued and QueueDepth describe the wait queue.
	Queued, QueueDepth int
	// MemUsed and MemLimit describe the global memory pool (MemLimit zero
	// when accounting is disabled).
	MemUsed, MemLimit int64
	// QueryMemLimit is the per-query budget (zero when disabled).
	QueryMemLimit int64
	// MeanHold is the EWMA slot-hold time behind RetryAfter suggestions.
	MeanHold time.Duration
}

// Stats snapshots the governor.
func (g *Governor) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return Stats{
		Slots:         g.slots,
		InUse:         g.inUse,
		Queued:        len(g.waiters),
		QueueDepth:    g.queueDepth,
		MemUsed:       g.memUsed,
		MemLimit:      g.memLimit,
		QueryMemLimit: g.queryMemLimit,
		MeanHold:      time.Duration(g.meanHoldNs),
	}
}

// ObserveScan feeds one observed scan (rows, wall time) into the EWMA scan
// cost model. It is a no-op once SetScanCost has frozen the model.
func (g *Governor) ObserveScan(rows int64, wall time.Duration) {
	if g == nil || rows <= 0 || wall <= 0 {
		return
	}
	perRow := float64(wall.Nanoseconds()) / float64(rows)
	g.mu.Lock()
	if !g.costFrozen {
		const alpha = 0.3
		if g.scanNsPerRow == 0 {
			g.scanNsPerRow = perRow
		} else {
			g.scanNsPerRow += alpha * (perRow - g.scanNsPerRow)
		}
	}
	g.mu.Unlock()
}

// EstimateScan predicts the wall time of scanning rows rows. It returns
// zero when the model has no data yet (unknown cost → no degradation
// pressure), so first queries run undegraded.
func (g *Governor) EstimateScan(rows int64) time.Duration {
	if g == nil || rows <= 0 {
		return 0
	}
	g.mu.Lock()
	perRow := g.scanNsPerRow
	g.mu.Unlock()
	if perRow == 0 {
		return 0
	}
	return time.Duration(perRow * float64(rows))
}

// SetScanCost pins the scan cost model to nsPerRow and freezes it against
// further ObserveScan updates. This is a test seam: chaos tests simulate
// arbitrarily slow scans without sleeping. Passing 0 unfreezes and resets
// the model.
func (g *Governor) SetScanCost(nsPerRow float64) {
	g.mu.Lock()
	if nsPerRow <= 0 {
		g.scanNsPerRow = 0
		g.costFrozen = false
	} else {
		g.scanNsPerRow = nsPerRow
		g.costFrozen = true
	}
	g.mu.Unlock()
}
