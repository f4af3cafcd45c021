package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"laqy/internal/engine"
	"laqy/internal/governor"
	"laqy/internal/obs"
	"laqy/internal/sample"
)

// fakePlan is a stand-in engine.PlannedSegment for remoteSegment's
// geometry delegation (its local Build must never be called over RPC).
type fakePlan struct {
	id   int
	rows int
}

func (f fakePlan) ID() int                       { return f.id }
func (f fakePlan) Version() uint64               { return 7 }
func (f fakePlan) Rows() int                     { return f.rows }
func (f fakePlan) Morsels() int                  { return 1 }
func (f fakePlan) MemEstimate(workers int) int64 { return 1 << 10 }
func (f fakePlan) ScanRange() (int, int)         { return 0, f.rows }
func (f fakePlan) Build(workers int, seed uint64) (sample.Part, engine.Stats, error) {
	panic("remote segment must not run the local build")
}

// shardHandler speaks just enough of the build protocol for pool tests:
// it answers BuildPath with a deterministic frame (or a scripted error).
func shardHandler(t *testing.T, hook func(w http.ResponseWriter, r *http.Request) bool) http.Handler {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc(BuildPath, func(w http.ResponseWriter, r *http.Request) {
		if hook != nil && !hook(w, r) {
			return
		}
		var spec struct {
			Seed uint64 `json:"seed"`
		}
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			t.Errorf("shard handler: bad spec: %v", err)
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		frame := EncodeFrame(testSample(spec.Seed, 1, 8, 200), engine.Stats{RowsScanned: 200, RowsSelected: 200})
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(frame) //laqy:allow errchecklite test handler write
	})
	return mux
}

func quickOptions() Options {
	return Options{
		Retry:          governor.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond, Jitter: 0.1, Seed: 1},
		AttemptTimeout: 2 * time.Second,
		HedgeAfter:     -1, // off unless a test enables it
		FailThreshold:  3,
		OpenFor:        100 * time.Millisecond,
	}
}

func newRemote(pool *Pool, id int) *remoteSegment {
	return &remoteSegment{
		local: fakePlan{id: id, rows: 500},
		pool:  pool,
		ctx:   context.Background(),
	}
}

func TestRemoteBuildSuccess(t *testing.T) {
	srv := httptest.NewServer(shardHandler(t, nil))
	defer srv.Close()
	reg := obs.NewRegistry()
	pool := NewPool([]NodeConfig{{Name: "a", BaseURL: srv.URL}}, quickOptions(), reg)

	r := newRemote(pool, 0)
	sam, stats, err := r.Build(2, 99)
	if err != nil {
		t.Fatal(err)
	}
	if sam == nil || sample.Seal(sam, 1).NumStrata() == 0 {
		t.Fatal("empty sample")
	}
	if stats.RowsScanned != 200 {
		t.Fatalf("stats not bridged: %+v", stats)
	}
	if r.Shard() != "a" {
		t.Fatalf("shard attribution %q", r.Shard())
	}
	if got := reg.Counter(obs.MShardAttempts).Value(); got != 1 {
		t.Fatalf("attempts %d", got)
	}
	if got := reg.Counter(obs.MShardRetries).Value(); got != 0 {
		t.Fatalf("retries %d", got)
	}
}

func TestRetryFailover(t *testing.T) {
	var badHits atomic.Int64
	bad := httptest.NewServer(shardHandler(t, func(w http.ResponseWriter, r *http.Request) bool {
		badHits.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		return false
	}))
	defer bad.Close()
	good := httptest.NewServer(shardHandler(t, nil))
	defer good.Close()

	reg := obs.NewRegistry()
	pool := NewPool([]NodeConfig{
		{Name: "bad", BaseURL: bad.URL},
		{Name: "good", BaseURL: good.URL},
	}, quickOptions(), reg)

	// Segment 0 leads on "bad"; attempt 1 fails there, attempt 2 rotates
	// to "good" and succeeds.
	r := newRemote(pool, 0)
	if _, _, err := r.Build(1, 5); err != nil {
		t.Fatal(err)
	}
	if r.Shard() != "good" {
		t.Fatalf("served by %q", r.Shard())
	}
	if badHits.Load() == 0 {
		t.Fatal("leader was never tried")
	}
	if got := reg.Counter(obs.MShardRetries).Value(); got != 1 {
		t.Fatalf("retries %d", got)
	}
}

func TestRetryExhaustionDropsSegment(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(shardHandler(t, func(w http.ResponseWriter, r *http.Request) bool {
		hits.Add(1)
		w.WriteHeader(http.StatusBadGateway)
		return false
	}))
	defer srv.Close()

	reg := obs.NewRegistry()
	opt := quickOptions()
	opt.FailThreshold = 100 // keep the breaker out of this test
	pool := NewPool([]NodeConfig{{Name: "a", BaseURL: srv.URL}}, opt, reg)

	_, _, err := newRemote(pool, 3).Build(1, 5)
	if err == nil {
		t.Fatal("exhausted retries must error")
	}
	if !engineUnavailable(err) {
		t.Fatalf("error must wrap engine.ErrSegmentUnavailable: %v", err)
	}
	// The retry budget is the governor policy's, exactly.
	if got := hits.Load(); got != 3 {
		t.Fatalf("attempts %d, want MaxAttempts=3", got)
	}
	if got := reg.Counter(obs.MShardDropped).Value(); got != 1 {
		t.Fatalf("dropped %d", got)
	}
}

func engineUnavailable(err error) bool {
	return errors.Is(err, engine.ErrSegmentUnavailable)
}

func TestHedgeWinsOnSlowPrimary(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(shardHandler(t, func(w http.ResponseWriter, r *http.Request) bool {
		<-release // stalls until the test finishes; the hedge must win
		w.WriteHeader(http.StatusInternalServerError)
		return false
	}))
	defer slow.Close()
	defer close(release)
	fast := httptest.NewServer(shardHandler(t, nil))
	defer fast.Close()

	reg := obs.NewRegistry()
	opt := quickOptions()
	opt.HedgeAfter = 10 * time.Millisecond
	pool := NewPool([]NodeConfig{
		{Name: "slow", BaseURL: slow.URL},
		{Name: "fast", BaseURL: fast.URL},
	}, opt, reg)

	r := newRemote(pool, 0) // leads on "slow", hedges to "fast"
	start := time.Now()
	if _, _, err := r.Build(1, 5); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedge did not cut the latency: %v", elapsed)
	}
	if r.Shard() != "fast" {
		t.Fatalf("served by %q, want the hedge target", r.Shard())
	}
	if got := reg.Counter(obs.MShardHedges).Value(); got != 1 {
		t.Fatalf("hedges %d", got)
	}
	if got := reg.Counter(obs.MShardHedgeWins).Value(); got != 1 {
		t.Fatalf("hedge wins %d", got)
	}
}

func TestStaleShardSurfaced(t *testing.T) {
	srv := httptest.NewServer(shardHandler(t, func(w http.ResponseWriter, r *http.Request) bool {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		fmt.Fprintf(w, `{"v":1,"error":{"code":"shard_stale","message":"segment moved on"}}`)
		return false
	}))
	defer srv.Close()

	reg := obs.NewRegistry()
	pool := NewPool([]NodeConfig{{Name: "a", BaseURL: srv.URL}}, quickOptions(), reg)
	_, _, err := newRemote(pool, 0).Build(1, 5)
	if err == nil {
		t.Fatal("stale shard must error")
	}
	if got := reg.Counter(obs.MShardStale).Value(); got == 0 {
		t.Fatal("stale counter untouched")
	}
}

func TestBreakerTripAndRecover(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	reg := obs.NewRegistry()
	opt := quickOptions()
	opt.FailThreshold = 2
	opt.OpenFor = 10 * time.Millisecond
	pool := NewPool([]NodeConfig{{Name: "a", BaseURL: srv.URL}}, opt, reg)

	// Two failed builds trip the breaker.
	newRemote(pool, 0).Build(1, 5) //laqy:allow errchecklite failure is the point
	if healthy, total := pool.Healthy(); healthy != 0 || total != 1 {
		t.Fatalf("breaker not tripped: %d/%d", healthy, total)
	}
	if got := reg.Counter(obs.MShardBreakerOpens).Value(); got == 0 {
		t.Fatal("breaker-open counter untouched")
	}
	if got := reg.Gauge(obs.MShardBreakersOpen).Value(); got != 1 {
		t.Fatalf("breakers-open gauge %d", got)
	}

	// Node recovers; the probe loop closes the breaker without a build.
	failing.Store(false)
	time.Sleep(15 * time.Millisecond) // let the cooldown elapse
	pool.ProbeAll(context.Background())
	if healthy, _ := pool.Healthy(); healthy != 1 {
		t.Fatalf("probe did not close the breaker: %v", pool.Status())
	}
	if got := reg.Gauge(obs.MShardBreakersOpen).Value(); got != 0 {
		t.Fatalf("breakers-open gauge %d after recovery", got)
	}
}

func TestDistributionMapVersioning(t *testing.T) {
	pool := NewPool([]NodeConfig{
		{Name: "a", BaseURL: "http://a"},
		{Name: "b", BaseURL: "http://b"},
		{Name: "c", BaseURL: "http://c"},
	}, quickOptions(), nil)

	// Default modulo routing: segment 1 leads on node b with c following.
	got := pool.route(1, time.Now())
	if len(got) != 2 || got[0].name != "b" || got[1].name != "c" {
		t.Fatalf("default route: %v", names(got))
	}

	if !pool.SetMap(Map{Version: 2, Assignments: map[int]Assignment{
		1: {Leader: "c", Followers: []string{"a"}},
	}}) {
		t.Fatal("v2 map rejected")
	}
	got = pool.route(1, time.Now())
	if len(got) != 2 || got[0].name != "c" || got[1].name != "a" {
		t.Fatalf("assigned route: %v", names(got))
	}
	// Stale and duplicate versions are ignored.
	if pool.SetMap(Map{Version: 1}) || pool.SetMap(Map{Version: 2}) {
		t.Fatal("stale map applied")
	}
	if pool.MapVersion() != 2 {
		t.Fatalf("map version %d", pool.MapVersion())
	}
	// Unknown names in an assignment fall back to modulo.
	pool.SetMap(Map{Version: 3, Assignments: map[int]Assignment{
		1: {Leader: "ghost"},
	}})
	got = pool.route(1, time.Now())
	if len(got) != 2 || got[0].name != "b" {
		t.Fatalf("ghost assignment route: %v", names(got))
	}
}

func names(nodes []*node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.name
	}
	return out
}

func TestParentCancelIsNotNodeFailure(t *testing.T) {
	block := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	defer srv.Close()
	defer close(block)

	pool := NewPool([]NodeConfig{{Name: "a", BaseURL: srv.URL}}, quickOptions(), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	r := newRemote(pool, 0)
	r.ctx = ctx
	_, _, err := r.Build(1, 5)
	if err == nil {
		t.Fatal("deadline must surface")
	}
	if engineUnavailable(err) {
		t.Fatalf("query deadline must not read as shard unavailability: %v", err)
	}
	// The node's breaker took no demerit: the shard was innocent.
	if _, _, fails := pool.nodes[0].h.snapshot(); fails != 0 {
		t.Fatalf("innocent node demerited %d times", fails)
	}
}
