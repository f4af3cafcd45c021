package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"laqy"
	"laqy/internal/governor"
	"laqy/internal/sample"
	"laqy/internal/shard"
	"laqy/internal/storage"
	"laqy/internal/store"
)

// ssbDB builds an SSB instance whose lineorder table spans multiple
// segments: SegmentRows sits at the morsel floor, so `rows` lineorder
// rows split into ceil(rows/64Ki) segments. Identical (rows, seed)
// pairs produce identical catalogs — including segment content
// versions — which is what lets a test coordinator and its shard
// daemons agree the way separately-loaded production replicas would.
func ssbDB(t testing.TB, rows int) *laqy.DB {
	t.Helper()
	db := laqy.Open(laqy.Config{DefaultK: 64, Seed: 11, Workers: 2, SegmentRows: storage.DefaultMorselSize})
	if err := db.LoadSSB(rows, 11); err != nil {
		t.Fatal(err)
	}
	return db
}

// postSpec sends a build spec to /v1/segment/build and returns the raw
// response (body fully read, connection released).
func postSpec(t testing.TB, url string, spec laqy.SegmentBuildSpec, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+shard.BuildPath, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// errCode decodes the wire-error code out of an error envelope.
func errCode(t testing.TB, raw []byte) string {
	t.Helper()
	var env Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("decode envelope: %v (%s)", err, raw)
	}
	if env.Error == nil {
		t.Fatalf("no error in envelope: %s", raw)
	}
	return env.Error.Code
}

// TestSegmentBuildEndpoint: a valid spec answers 200 with a decodable
// reservoir frame, and the remote reservoir is byte-identical to the
// one the same spec produces through the in-process BuildSegment — the
// distributed path adds transport, not arithmetic.
func TestSegmentBuildEndpoint(t *testing.T) {
	db := laqy.Open(laqy.Config{DefaultK: 64, Seed: 7, Workers: 2})
	if err := db.LoadSSB(20_000, 7); err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{Tenants: []Tenant{{Name: "main", DB: db}}})

	spec := laqy.SegmentBuildSpec{
		Table:    "lineorder",
		Segment:  0,
		ScanFrom: 0,
		ScanTo:   20_000,
		Schema:   []string{"lo_discount", "lo_revenue"},
		QCSWidth: 1,
		K:        64,
		Seed:     99,
		Workers:  2,
	}
	resp, raw := postSpec(t, hs.URL, spec, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	remote, stats, err := shard.DecodeFrame(raw, spec.Seed)
	if err != nil {
		t.Fatalf("decode frame: %v", err)
	}
	if stats.RowsScanned != 20_000 {
		t.Fatalf("shard stats: %+v", stats)
	}

	local, _, err := db.BuildSegment(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(store.EncodeStratified(sample.Seal(remote, 1)), store.EncodeStratified(local)) {
		t.Fatal("remote reservoir differs from local build for the same spec")
	}
}

// TestSegmentBuildEndpointErrors drives the endpoint's typed failure
// surface: wrong method, malformed body, unknown tenant, unknown
// table, degenerate scan range, and the 409 shard_stale version
// mismatch that tells a coordinator to re-plan rather than retry.
func TestSegmentBuildEndpointErrors(t *testing.T) {
	db := laqy.Open(laqy.Config{DefaultK: 64, Seed: 7})
	if err := db.LoadSSB(5_000, 7); err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{Tenants: []Tenant{{Name: "main", DB: db}}})
	valid := laqy.SegmentBuildSpec{
		Table: "lineorder", Segment: 0, ScanFrom: 0, ScanTo: 5_000,
		Schema: []string{"lo_discount", "lo_revenue"}, QCSWidth: 1, K: 16, Seed: 1,
	}

	t.Run("method", func(t *testing.T) {
		resp, err := http.Get(hs.URL + shard.BuildPath)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "POST" {
			t.Fatalf("status = %d Allow = %q", resp.StatusCode, resp.Header.Get("Allow"))
		}
	})
	t.Run("malformed body", func(t *testing.T) {
		resp, err := http.Post(hs.URL+shard.BuildPath, "application/json", strings.NewReader("{nope"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body) //laqy:allow errchecklite status is the assertion
		if resp.StatusCode != http.StatusBadRequest || errCode(t, raw) != "bad_request" {
			t.Fatalf("status = %d body %s", resp.StatusCode, raw)
		}
	})
	t.Run("unknown tenant", func(t *testing.T) {
		resp, raw := postSpec(t, hs.URL, valid, map[string]string{"X-Laqy-Tenant": "ghost"})
		if resp.StatusCode != http.StatusNotFound || errCode(t, raw) != "unknown_tenant" {
			t.Fatalf("status = %d body %s", resp.StatusCode, raw)
		}
	})
	t.Run("unknown table", func(t *testing.T) {
		spec := valid
		spec.Table = "nope"
		resp, raw := postSpec(t, hs.URL, spec, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d body %s", resp.StatusCode, raw)
		}
	})
	t.Run("bad scan range", func(t *testing.T) {
		spec := valid
		spec.ScanTo = 1 << 30
		resp, raw := postSpec(t, hs.URL, spec, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d body %s", resp.StatusCode, raw)
		}
	})
	t.Run("stale version", func(t *testing.T) {
		spec := valid
		spec.SegmentVersion = 0xdeadbeef
		resp, raw := postSpec(t, hs.URL, spec, nil)
		if resp.StatusCode != http.StatusConflict || errCode(t, raw) != "shard_stale" {
			t.Fatalf("status = %d body %s", resp.StatusCode, raw)
		}
	})
}

// TestSegmentBuildWrongShard: a daemon started with -shard-of refuses
// segments the modulo distribution assigns elsewhere (421), and serves
// its own.
func TestSegmentBuildWrongShard(t *testing.T) {
	db := laqy.Open(laqy.Config{DefaultK: 64, Seed: 7})
	if err := db.LoadSSB(5_000, 7); err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{
		Tenants:    []Tenant{{Name: "main", DB: db}},
		ShardIndex: 0,
		ShardCount: 2,
	})
	spec := laqy.SegmentBuildSpec{
		Table: "lineorder", Segment: 1, ScanFrom: 0, ScanTo: 5_000,
		Schema: []string{"lo_discount", "lo_revenue"}, QCSWidth: 1, K: 16, Seed: 1,
	}
	resp, raw := postSpec(t, hs.URL, spec, nil)
	if resp.StatusCode != http.StatusMisdirectedRequest || errCode(t, raw) != "wrong_shard" {
		t.Fatalf("status = %d body %s", resp.StatusCode, raw)
	}

	spec.Segment = 0 // segment 0 mod 2 == shard 0: owned
	resp, raw = postSpec(t, hs.URL, spec, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owned segment refused: %d %s", resp.StatusCode, raw)
	}
}

// TestDistributedSegments is the end-to-end distributed path: a
// coordinator planning against its own catalog while shard daemons
// execute the per-segment builds over HTTP. With all shards healthy the
// answer is bitwise-identical to a purely local run; with one shard
// unreachable the answer degrades to a labeled 206 partial with shard
// attribution instead of failing.
func TestDistributedSegments(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-segment SSB fixture is heavy")
	}
	const rows = 150_000 // 3 segments of ≤64Ki rows
	const sql = "SELECT lo_discount, SUM(lo_revenue) FROM lineorder GROUP BY lo_discount APPROX"

	shardDB := ssbDB(t, rows)
	// Two daemons over identical data (one shared catalog: builds are
	// read-only), so the pool has a real failover target.
	_, daemonA := newTestServer(t, Config{Tenants: []Tenant{{Name: "main", DB: shardDB}}})
	_, daemonB := newTestServer(t, Config{Tenants: []Tenant{{Name: "main", DB: shardDB}}})

	t.Run("matches local run bitwise", func(t *testing.T) {
		local := ssbDB(t, rows)
		coord := ssbDB(t, rows)
		pool := shard.NewPool([]shard.NodeConfig{
			{Name: "a", BaseURL: daemonA.URL},
			{Name: "b", BaseURL: daemonB.URL},
		}, shard.Options{HedgeAfter: -1}, nil)
		coord.SetSegmentPlanner(shard.NewPlanner(pool))

		want, err := local.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		got, err := coord.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Degradations) != 0 {
			t.Fatalf("healthy pool degraded: %+v", got.Degradations)
		}
		if got.Stats.Segments != 3 || got.Stats.SegmentsBuilt != 3 {
			t.Fatalf("segment accounting: %+v", got.Stats)
		}
		if !reflect.DeepEqual(want.Rows, got.Rows) {
			t.Fatalf("distributed answer differs from local:\nlocal  %+v\nremote %+v", want.Rows, got.Rows)
		}

		// EXPLAIN ANALYZE surfaces which shard built each segment. A
		// different QCS so the store can't answer from the sample the
		// query above built (offline reuse would skip the builds).
		res, err := coord.Query("EXPLAIN ANALYZE SELECT lo_quantity, SUM(lo_extendedprice) FROM lineorder GROUP BY lo_quantity APPROX")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(res.Explain, "shard=") {
			t.Fatalf("EXPLAIN ANALYZE missing shard attribution:\n%s", res.Explain)
		}
	})

	t.Run("dead shard degrades to 206 partial", func(t *testing.T) {
		coordSrv, coordHS := newTestServer(t, Config{
			Tenants: []Tenant{{Name: "main", DB: ssbDB(t, rows)}},
			Shards: []shard.NodeConfig{
				{Name: "live", BaseURL: daemonA.URL},
				{Name: "dead", BaseURL: "http://127.0.0.1:9"}, // nothing listens here
			},
			ShardOptions: shard.Options{
				Retry:          governor.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond},
				AttemptTimeout: 2 * time.Second,
				HedgeAfter:     -1,
				FailThreshold:  2,
				OpenFor:        time.Minute,
			},
		})
		// Pin segment 1 to the dead node with no followers: every
		// candidate fails, forcing the drop path (the default modulo
		// map would fail over to the live follower and hide it).
		if !coordSrv.ShardPool().SetMap(shard.Map{Version: 1, Assignments: map[int]shard.Assignment{
			0: {Leader: "live"},
			1: {Leader: "dead"},
			2: {Leader: "live"},
		}}) {
			t.Fatal("map rejected")
		}

		resp, env := postQuery(t, coordHS.URL, QueryRequest{SQL: sql})
		if resp.StatusCode != http.StatusPartialContent {
			t.Fatalf("status = %d (error %+v), want 206", resp.StatusCode, env.Error)
		}
		if len(env.Rows) == 0 {
			t.Fatal("partial answer has no rows")
		}
		if env.Stats.Segments != 3 || env.Stats.SegmentsBuilt != 2 || env.Stats.RowsDropped != int64(storage.DefaultMorselSize) {
			t.Fatalf("partial accounting: %+v", env.Stats)
		}
		joined := strings.Join(env.Degradations, "\n")
		if !strings.Contains(joined, "drop_segments") || !strings.Contains(joined, "dead") ||
			!strings.Contains(joined, "2 of 3 segments built") {
			t.Fatalf("degradation label missing attribution: %q", joined)
		}

		// The exhausted node tripped its breaker, and /readyz says so
		// while staying ready (one shard still answers).
		rz, err := http.Get(coordHS.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer rz.Body.Close()
		body, _ := io.ReadAll(rz.Body) //laqy:allow errchecklite status is the assertion
		if rz.StatusCode != http.StatusOK {
			t.Fatalf("readyz = %d: %s", rz.StatusCode, body)
		}
		if !strings.Contains(string(body), "healthy=1/2") {
			t.Fatalf("shards probe missing breaker state: %s", body)
		}
	})
}

// TestRequestIDReachesShardBuilds: a coordinator query's request id travels
// with its segment builds — every shard build response echoes the id the
// client sent — and an oversized or malformed inbound id is replaced by a
// minted one, which the builds then carry instead.
func TestRequestIDReachesShardBuilds(t *testing.T) {
	const rows = 70_000 // segments of ≤64Ki rows
	shardSrv, err := New(Config{Tenants: []Tenant{{Name: "main", DB: ssbDB(t, rows)}}})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var echoed []string
	shardHS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != shard.BuildPath {
			shardSrv.Handler().ServeHTTP(w, r)
			return
		}
		// Record the echoed id when the build's header goes out, before the
		// coordinator can read the response: a record taken after ServeHTTP
		// returns can land after the coordinator answered the client, and
		// so inside the next case.
		shardSrv.Handler().ServeHTTP(&headerTap{ResponseWriter: w, tap: func(h http.Header) {
			mu.Lock()
			echoed = append(echoed, h.Get("X-Laqy-Request-Id"))
			mu.Unlock()
		}}, r)
	}))
	t.Cleanup(shardHS.Close)
	_, coordHS := newTestServer(t, Config{
		Tenants:      []Tenant{{Name: "main", DB: ssbDB(t, rows)}},
		Shards:       []shard.NodeConfig{{Name: "s", BaseURL: shardHS.URL}},
		ShardOptions: shard.Options{HedgeAfter: -1},
	})

	for _, tc := range []struct {
		col, sent string
		adopted   bool
	}{
		{"lo_discount", "trace-7f3a.client:42_x", true},
		{"lo_quantity", strings.Repeat("a", 65), false},
		{"lo_tax", "bad id/with spaces", false},
	} {
		mu.Lock()
		echoed = nil
		mu.Unlock()
		// A QCS per case, so no case answers from a sample an earlier one stored.
		body, err := json.Marshal(QueryRequest{SQL: fmt.Sprintf(
			"SELECT %s, SUM(lo_revenue) FROM lineorder GROUP BY %s APPROX", tc.col, tc.col)})
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, coordHS.URL+"/v1/query", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Laqy-Request-Id", tc.sent)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		id := resp.Header.Get("X-Laqy-Request-Id")
		if resp.StatusCode != http.StatusOK || (id == tc.sent) != tc.adopted || !tc.adopted && !strings.HasPrefix(id, "laqy-") {
			t.Fatalf("sent %q: status %d, coordinator id %q (adopt = %v)", tc.sent, resp.StatusCode, id, tc.adopted)
		}
		mu.Lock()
		got := append([]string(nil), echoed...)
		mu.Unlock()
		if len(got) == 0 {
			t.Fatalf("sent %q: no segment was built on the shard", tc.sent)
		}
		for _, e := range got {
			if e != id {
				t.Fatalf("sent %q: shard builds echoed %q, want the coordinator's %q", tc.sent, got, id)
			}
		}
	}
}

// headerTap is a ResponseWriter that hands the response header to tap once,
// when it is written (explicitly or by the first Write).
type headerTap struct {
	http.ResponseWriter
	tap   func(http.Header)
	wrote bool
}

func (w *headerTap) WriteHeader(code int) {
	if !w.wrote {
		w.wrote = true
		w.tap(w.Header())
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *headerTap) Write(p []byte) (int, error) {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(p)
}

func (w *headerTap) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
