package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"laqy/internal/engine"
	"laqy/internal/governor"
	"laqy/internal/obs"
	"laqy/internal/sample"
)

// BuildPath is the segment-build endpoint a shard laqyd serves.
const BuildPath = "/v1/segment/build"

// Options tunes the pool's failure ladder. The zero value gets sane
// defaults; the chaos harness tightens everything.
type Options struct {
	// Retry bounds the per-segment attempt loop (attempts rotate across
	// the segment's leader and followers). Zero MaxAttempts defaults to 3.
	Retry governor.RetryPolicy
	// AttemptTimeout caps one RPC attempt (default 5s).
	AttemptTimeout time.Duration
	// HedgeAfter launches a hedged request to a follower when the primary
	// has not answered within this delay. Zero derives the delay from the
	// primary's latency EWMA (×2, floored at 20ms); negative disables
	// hedging.
	HedgeAfter time.Duration
	// FailThreshold trips a node's breaker after this many consecutive
	// failures (default 3); OpenFor is the open cooldown (default 2s).
	FailThreshold int
	OpenFor       time.Duration
	// ProbeTimeout caps one /readyz health probe (default 1s).
	ProbeTimeout time.Duration
	// Transport overrides the HTTP transport (the netfault seam); nil
	// uses http.DefaultTransport.
	Transport http.RoundTripper
}

func (o Options) withDefaults() Options {
	if o.Retry.MaxAttempts <= 0 {
		o.Retry.MaxAttempts = 3
	}
	if o.Retry.BaseBackoff == 0 {
		o.Retry.BaseBackoff = 10 * time.Millisecond
	}
	if o.Retry.MaxBackoff == 0 {
		o.Retry.MaxBackoff = 250 * time.Millisecond
	}
	if o.Retry.Jitter == 0 {
		o.Retry.Jitter = 0.2
	}
	if o.AttemptTimeout <= 0 {
		o.AttemptTimeout = 5 * time.Second
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 3
	}
	if o.OpenFor <= 0 {
		o.OpenFor = 2 * time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = time.Second
	}
	return o
}

// NodeConfig names one shard node: Name is the stable identity used in
// assignment maps and metrics detail, BaseURL its http root (no trailing
// slash), Tenant the namespace builds run under ("" = the daemon's
// default tenant).
type NodeConfig struct {
	Name    string
	BaseURL string
	Tenant  string
}

// node is one pooled shard with its health record.
type node struct {
	name   string
	base   string
	tenant string
	h      health
}

// NodeStatus is one node's externally-visible health, for the /readyz
// shards probe and the shell \shards command.
type NodeStatus struct {
	Name     string
	BaseURL  string
	State    BreakerState
	EWMA     time.Duration
	Failures int
}

// Assignment places one segment: builds go to Leader, hedges and
// promotion fall to Followers in order.
type Assignment struct {
	Leader    string   `json:"leader"`
	Followers []string `json:"followers,omitempty"`
}

// Map is a versioned segment→node distribution. Higher versions replace
// lower ones (SetMap ignores stale maps), so a coordinator fed by an
// external controller converges without coordination. Segments absent
// from Assignments fall back to the static default: segment i leads on
// node i mod N with node i+1 mod N as follower — the same arithmetic a
// laqyd started with -shard-of i/n applies on the serving side.
type Map struct {
	Version     uint64             `json:"version"`
	Assignments map[int]Assignment `json:"assignments,omitempty"`
}

// poolMetrics caches the shard instruments.
type poolMetrics struct {
	attempts     *obs.Counter
	retries      *obs.Counter
	hedges       *obs.Counter
	hedgeWins    *obs.Counter
	failures     *obs.Counter
	dropped      *obs.Counter
	stale        *obs.Counter
	breakerOpens *obs.Counter
	breakersOpen *obs.Gauge
	buildSeconds *obs.Histogram
}

// Pool is a health-tracked set of shard nodes plus the current
// distribution map. It is safe for concurrent use by many queries.
type Pool struct {
	opt    Options
	client *http.Client
	met    poolMetrics

	mu     sync.Mutex
	nodes  []*node
	byName map[string]*node
	dist   Map
}

// NewPool builds a pool over the given nodes. reg receives the
// laqy_shard_* instruments (obs.Disabled works).
func NewPool(nodes []NodeConfig, opt Options, reg *obs.Registry) *Pool {
	opt = opt.withDefaults()
	if reg == nil {
		reg = obs.Disabled
	}
	p := &Pool{
		opt: opt,
		client: &http.Client{
			Transport: opt.Transport,
			Timeout:   0, // per-attempt contexts carry the deadline
		},
		byName: make(map[string]*node),
		met: poolMetrics{
			attempts:     reg.Counter(obs.MShardAttempts),
			retries:      reg.Counter(obs.MShardRetries),
			hedges:       reg.Counter(obs.MShardHedges),
			hedgeWins:    reg.Counter(obs.MShardHedgeWins),
			failures:     reg.Counter(obs.MShardFailures),
			dropped:      reg.Counter(obs.MShardDropped),
			stale:        reg.Counter(obs.MShardStale),
			breakerOpens: reg.Counter(obs.MShardBreakerOpens),
			breakersOpen: reg.Gauge(obs.MShardBreakersOpen),
			buildSeconds: reg.Histogram(obs.MShardBuildSeconds),
		},
	}
	for _, nc := range nodes {
		n := &node{name: nc.Name, base: nc.BaseURL, tenant: nc.Tenant}
		n.h.failThreshold = opt.FailThreshold
		n.h.openFor = opt.OpenFor
		p.nodes = append(p.nodes, n)
		p.byName[n.name] = n
	}
	return p
}

// Size is the number of configured nodes.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.nodes)
}

// SetMap installs a distribution map; maps older than the installed
// version are ignored (the version makes the update idempotent and
// reordering-safe). Returns whether the map was applied.
func (p *Pool) SetMap(m Map) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if m.Version <= p.dist.Version && p.dist.Version != 0 {
		return false
	}
	p.dist = m
	return true
}

// MapVersion returns the installed distribution map version.
func (p *Pool) MapVersion() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dist.Version
}

// route resolves one segment's candidate nodes, leader first, demoting
// nodes whose breaker refuses traffic to the back of the list — a
// follower is promoted when the leader is open, and an all-open segment
// still returns its candidates so a half-open probe can recover the pool.
func (p *Pool) route(segID int, now time.Time) []*node {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.nodes) == 0 {
		return nil
	}
	var ordered []*node
	if a, ok := p.dist.Assignments[segID]; ok {
		if n := p.byName[a.Leader]; n != nil {
			ordered = append(ordered, n)
		}
		for _, f := range a.Followers {
			if n := p.byName[f]; n != nil {
				ordered = append(ordered, n)
			}
		}
	}
	if len(ordered) == 0 {
		lead := segID % len(p.nodes)
		ordered = append(ordered, p.nodes[lead])
		if len(p.nodes) > 1 {
			ordered = append(ordered, p.nodes[(lead+1)%len(p.nodes)])
		}
	}
	// Stable partition: allowed nodes keep their order ahead of refused
	// ones, so leader/follower preference survives health reordering.
	sort.SliceStable(ordered, func(i, j int) bool {
		ai, aj := ordered[i].h.allowPeek(now), ordered[j].h.allowPeek(now)
		return ai && !aj
	})
	return ordered
}

// Status snapshots every node's health, in configuration order.
func (p *Pool) Status() []NodeStatus {
	p.mu.Lock()
	nodes := append([]*node(nil), p.nodes...)
	p.mu.Unlock()
	out := make([]NodeStatus, 0, len(nodes))
	for _, n := range nodes {
		state, ewma, fails := n.h.snapshot()
		out = append(out, NodeStatus{Name: n.name, BaseURL: n.base, State: state, EWMA: ewma, Failures: fails})
	}
	return out
}

// Healthy counts nodes whose breaker is closed, alongside the total.
func (p *Pool) Healthy() (healthy, total int) {
	for _, s := range p.Status() {
		total++
		if s.State == BreakerClosed {
			healthy++
		}
	}
	return healthy, total
}

// ProbeAll checks every node's /readyz once, feeding the breakers: an
// open node that answers ready closes again without risking a build. The
// laqyd coordinator calls this on a timer and from its own /readyz.
func (p *Pool) ProbeAll(ctx context.Context) {
	p.mu.Lock()
	nodes := append([]*node(nil), p.nodes...)
	p.mu.Unlock()
	var wg sync.WaitGroup
	for _, n := range nodes {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.probe(ctx, n)
		}()
	}
	wg.Wait()
	p.refreshBreakerGauge()
}

// probe is one /readyz round-trip.
func (p *Pool) probe(ctx context.Context, n *node) {
	pctx, cancel := context.WithTimeout(ctx, p.opt.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, n.base+"/readyz", nil)
	if err != nil {
		return
	}
	resp, err := p.client.Do(req)
	ok := err == nil && resp.StatusCode == http.StatusOK
	if resp != nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16)) //laqy:allow errchecklite best-effort drain for connection reuse
		resp.Body.Close()                                     //laqy:allow errchecklite response body close cannot lose data
	}
	n.h.observe(0, ok, obs.Clock(), p.met.breakerOpens.Inc)
}

// refreshBreakerGauge republishes how many breakers are not closed.
func (p *Pool) refreshBreakerGauge() {
	open := int64(0)
	for _, s := range p.Status() {
		if s.State != BreakerClosed {
			open++
		}
	}
	p.met.breakersOpen.Set(open)
}

// staleShardError marks a 409 shard_stale rejection (version mismatch
// between the coordinator's plan and the shard's segment).
type staleShardError struct{ msg string }

func (e *staleShardError) Error() string { return e.msg }

// buildOnce runs one RPC attempt against one node: POST the spec, decode
// the reservoir frame, feed the node's health record either way.
func (p *Pool) buildOnce(ctx context.Context, n *node, body []byte, seed uint64) (*sample.Builder, engine.Stats, error) {
	actx, cancel := context.WithTimeout(ctx, p.opt.AttemptTimeout)
	defer cancel()
	start := obs.Clock()
	p.met.attempts.Inc()
	sam, st, err := p.doBuild(actx, n, body, seed)
	elapsed := obs.Since(start)
	if err != nil {
		p.met.failures.Inc()
		if _, stale := err.(*staleShardError); stale {
			p.met.stale.Inc()
		}
	}
	// A parent-context cancellation is the coordinator's deadline, not the
	// node's fault: skip the health demerit so an innocent shard does not
	// trip its breaker when the query gives up.
	if ctx.Err() == nil || err == nil {
		n.h.observe(elapsed, err == nil, obs.Clock(), p.met.breakerOpens.Inc)
	}
	p.refreshBreakerGauge()
	if err == nil {
		p.met.buildSeconds.Observe(elapsed)
	}
	return sam, st, err
}

func (p *Pool) doBuild(ctx context.Context, n *node, body []byte, seed uint64) (*sample.Builder, engine.Stats, error) {
	var zero engine.Stats
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.base+BuildPath, bytes.NewReader(body))
	if err != nil {
		return nil, zero, err
	}
	req.Header.Set("Content-Type", "application/json")
	if n.tenant != "" {
		req.Header.Set("X-Laqy-Tenant", n.tenant)
	}
	if id := obs.RequestIDFrom(ctx); id != "" {
		req.Header.Set("X-Laqy-Request-Id", id)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, zero, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16)) //laqy:allow errchecklite best-effort drain for connection reuse
		resp.Body.Close()                                     //laqy:allow errchecklite response body close cannot lose data
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, zero, decodeWireError(resp)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxFramePayload+64))
	if err != nil {
		return nil, zero, fmt.Errorf("reading reservoir frame: %w", err)
	}
	return DecodeFrame(data, seed)
}

// decodeWireError maps a non-200 segment-build response to an error,
// parsing the daemon's typed JSON envelope when present.
func decodeWireError(resp *http.Response) error {
	var env struct {
		Error *struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16)) //laqy:allow errchecklite best-effort read; the status code is the primary signal
	if json.Unmarshal(body, &env) == nil && env.Error != nil {
		msg := fmt.Sprintf("shard %d %s: %s", resp.StatusCode, env.Error.Code, env.Error.Message)
		if env.Error.Code == "shard_stale" {
			return &staleShardError{msg: msg}
		}
		return fmt.Errorf("%s", msg)
	}
	return fmt.Errorf("shard returned status %d", resp.StatusCode)
}
