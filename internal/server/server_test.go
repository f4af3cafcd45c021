package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"laqy"
	"laqy/internal/governor"
	"laqy/internal/iofault"
	"laqy/internal/obs"
)

// tinyDB builds a four-row engine instance for contract tests.
func tinyDB(t testing.TB) *laqy.DB {
	t.Helper()
	db := laqy.Open(laqy.Config{DefaultK: 64, Seed: 3})
	if err := db.Register(laqy.NewTable("t").
		Int64("g", []int64{1, 1, 2, 2}).
		Int64("v", []int64{10, 20, 30, 40})); err != nil {
		t.Fatal(err)
	}
	return db
}

// newTestServer mounts cfg's Handler on an httptest server.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

// postQuery sends a QueryRequest and decodes the envelope.
func postQuery(t testing.TB, url string, req QueryRequest) (*http.Response, *Envelope) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	return resp, &env
}

func TestQueryRoundtrip(t *testing.T) {
	_, hs := newTestServer(t, Config{Tenants: []Tenant{{Name: "acme", DB: tinyDB(t)}}})

	resp, env := postQuery(t, hs.URL, QueryRequest{SQL: "SELECT g, SUM(v) FROM t GROUP BY g"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (error: %+v)", resp.StatusCode, env.Error)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control = %q, want no-store", cc)
	}
	if env.RequestID == "" || env.RequestID != resp.Header.Get("X-Laqy-Request-Id") {
		t.Errorf("request id mismatch: envelope %q header %q",
			env.RequestID, resp.Header.Get("X-Laqy-Request-Id"))
	}
	if env.Tenant != "acme" {
		t.Errorf("tenant = %q, want acme (single-tenant default)", env.Tenant)
	}
	if len(env.GroupColumns) != 1 || env.GroupColumns[0] != "g" {
		t.Errorf("group columns = %v", env.GroupColumns)
	}
	if env.RowCount != 2 || len(env.Rows) != 2 {
		t.Fatalf("rows = %d/%d, want 2", env.RowCount, len(env.Rows))
	}
	if env.Rows[0].Aggs[0].Value != 30 || env.Rows[1].Aggs[0].Value != 70 {
		t.Errorf("sums = %v, %v, want 30, 70", env.Rows[0].Aggs[0].Value, env.Rows[1].Aggs[0].Value)
	}
	if env.Mode != "exact" || env.Approximate {
		t.Errorf("mode=%q approximate=%v, want exact", env.Mode, env.Approximate)
	}
	if env.Stats == nil {
		t.Error("envelope missing stats")
	}
}

// TestErrorContract pins every client-visible error class end to end.
func TestErrorContract(t *testing.T) {
	_, hs := newTestServer(t, Config{
		Tenants:      []Tenant{{Name: "acme", DB: tinyDB(t)}},
		MaxBodyBytes: 256,
	})

	post := func(body string) (*http.Response, *Envelope) {
		t.Helper()
		resp, err := http.Post(hs.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env Envelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("decode envelope: %v", err)
		}
		return resp, &env
	}

	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"malformed json", "{", http.StatusBadRequest, "bad_request"},
		{"missing sql", `{}`, http.StatusBadRequest, "bad_request"},
		{"parse error", `{"sql":"SELEC"}`, http.StatusBadRequest, "bad_request"},
		{"unknown table", `{"sql":"SELECT x FROM nope"}`, http.StatusBadRequest, "bad_request"},
		{"unknown tenant", `{"sql":"SELECT g FROM t GROUP BY g","tenant":"ghost"}`,
			http.StatusNotFound, "unknown_tenant"},
		{"body too large", `{"sql":"SELECT g FROM t WHERE g IN (` +
			strings.Repeat("1,", 200) + `1)"}`, http.StatusRequestEntityTooLarge, "body_too_large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, env := post(tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			if env.Error == nil || env.Error.Code != tc.code {
				t.Fatalf("error = %+v, want code %q", env.Error, tc.code)
			}
			if resp.Header.Get("X-Laqy-Request-Id") == "" {
				t.Error("error response missing request id")
			}
		})
	}

	t.Run("method not allowed", func(t *testing.T) {
		resp, err := http.Get(hs.URL + "/v1/query")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want 405", resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != "POST" {
			t.Errorf("Allow = %q, want POST", allow)
		}
	})
}

// TestMapError pins the typed error → wire mapping white-box.
func TestMapError(t *testing.T) {
	over := &governor.OverloadedError{Reason: "queue full", RetryAfter: 120 * time.Millisecond}
	if status, we := mapError(over); status != 429 || we.Code != "overloaded" || we.RetryAfterMS != 120 {
		t.Errorf("overloaded → %d %+v", status, we)
	}
	if status, we := mapError(fmt.Errorf("wrap: %w", over)); status != 429 || we.RetryAfterMS != 120 {
		t.Errorf("wrapped overloaded → %d %+v", status, we)
	}
	mem := &governor.MemoryBudgetError{Requested: 10, Limit: 5}
	if status, we := mapError(mem); status != 507 || we.Code != "memory_budget" {
		t.Errorf("memory → %d %+v", status, we)
	}
	if status, we := mapError(context.DeadlineExceeded); status != 504 || we.Code != "timeout" {
		t.Errorf("deadline → %d %+v", status, we)
	}
	if status, we := mapError(context.Canceled); status != 499 || we.Code != "canceled" {
		t.Errorf("canceled → %d %+v", status, we)
	}
	if status, we := mapError(fmt.Errorf("parse error")); status != 400 || we.Code != "bad_request" {
		t.Errorf("generic → %d %+v", status, we)
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{{0, 1}, {-time.Second, 1}, {200 * time.Millisecond, 1}, {time.Second, 1},
		{1001 * time.Millisecond, 2}, {3 * time.Second, 3}}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

// TestOverloadedHTTP drives a tiny admission pool into rejection over
// HTTP and asserts the full 429 contract: status, typed code, envelope
// backoff, and the Retry-After header on every rejection.
func TestOverloadedHTTP(t *testing.T) {
	db := laqy.Open(laqy.Config{
		Workers:  1,
		DefaultK: 64,
		Seed:     5,
		Governor: laqy.GovernorConfig{Slots: 2, QueueDepth: 1, QueueTimeout: time.Millisecond},
	})
	if err := db.LoadSSB(20_000, 2); err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{Tenants: []Tenant{{Name: "acme", DB: db}}})

	const burst = 16
	q := `SELECT d_year, SUM(lo_revenue) FROM lineorder, date
		WHERE lo_orderdate = d_datekey GROUP BY d_year`
	var rejected int
	for round := 0; round < 20 && rejected == 0; round++ {
		start := make(chan struct{})
		type outcome struct {
			status     int
			retryHdr   string
			retryAfter int64
			code       string
		}
		outcomes := make([]outcome, burst)
		var wg sync.WaitGroup
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				resp, env := postQuery(t, hs.URL, QueryRequest{SQL: q})
				outcomes[i] = outcome{status: resp.StatusCode, retryHdr: resp.Header.Get("Retry-After")}
				if env.Error != nil {
					outcomes[i].code = env.Error.Code
					outcomes[i].retryAfter = env.Error.RetryAfterMS
				}
			}(i)
		}
		close(start)
		wg.Wait()
		for _, o := range outcomes {
			switch o.status {
			case http.StatusOK, http.StatusPartialContent:
			case http.StatusTooManyRequests:
				rejected++
				if o.code != "overloaded" {
					t.Errorf("429 with code %q, want overloaded", o.code)
				}
				if o.retryAfter <= 0 {
					t.Errorf("429 without retry_after_ms in envelope")
				}
				if sec, err := strconv.Atoi(o.retryHdr); err != nil || sec < 1 {
					t.Errorf("429 Retry-After header = %q, want integer >= 1", o.retryHdr)
				}
			default:
				t.Errorf("unexpected status %d (code %q)", o.status, o.code)
			}
		}
	}
	if rejected == 0 {
		t.Fatal("burst never produced a 429 against a 2-slot pool")
	}
}

// TestDegraded206 drives the deadline degradation ladder over HTTP: under
// a frozen glacial cost model the answer is served stale from the stored
// sample, labeled in the envelope, and the response is 206.
func TestDegraded206(t *testing.T) {
	db := laqy.Open(laqy.Config{Workers: 1, DefaultK: 256, Seed: 5})
	if err := db.LoadSSB(30_000, 3); err != nil {
		t.Fatal(err)
	}
	// Warm the store with a covering sample, then make scans glacial.
	warm := `SELECT d_year, SUM(lo_revenue) FROM lineorder, date
		WHERE lo_orderdate = d_datekey AND lo_intkey BETWEEN 0 AND 10000
		GROUP BY d_year APPROX`
	if _, err := db.Query(warm); err != nil {
		t.Fatal(err)
	}
	db.SetScanCostNanos(1e7) // 10ms/row: every scan is predicted to blow the deadline

	s, hs := newTestServer(t, Config{Tenants: []Tenant{{Name: "acme", DB: db}}})
	stale := `SELECT d_year, SUM(lo_revenue) FROM lineorder, date
		WHERE lo_orderdate = d_datekey AND lo_intkey BETWEEN 0 AND 20000
		GROUP BY d_year APPROX`
	resp, env := postQuery(t, hs.URL, QueryRequest{SQL: stale, TimeoutMS: 10_000})
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("status = %d, want 206 (error: %+v)", resp.StatusCode, env.Error)
	}
	if !env.Stale {
		t.Error("envelope not labeled stale")
	}
	if len(env.Degradations) == 0 {
		t.Error("envelope missing degradation labels")
	} else if !strings.Contains(env.Degradations[0], "skip_delta") {
		t.Errorf("degradations = %v, want skip_delta", env.Degradations)
	}
	if env.Mode != "offline" {
		t.Errorf("mode = %q, want offline", env.Mode)
	}
	if got := s.Metrics().Counters[obs.MSrvDegraded]; got != 1 {
		t.Errorf("degraded counter = %d, want 1", got)
	}
}

// TestStreamNDJSON pins the streaming frame protocol: header first, one
// row frame per result row, summary last, everything demuxable by kind.
func TestStreamNDJSON(t *testing.T) {
	_, hs := newTestServer(t, Config{Tenants: []Tenant{{Name: "acme", DB: tinyDB(t)}}})
	body, _ := json.Marshal(QueryRequest{SQL: "SELECT g, SUM(v) FROM t GROUP BY g", Stream: true})
	resp, err := http.Post(hs.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 4 { // header + 2 rows + summary
		t.Fatalf("got %d frames, want 4:\n%s", len(lines), raw)
	}
	var frames []StreamFrame
	for _, ln := range lines {
		var f StreamFrame
		if err := json.Unmarshal([]byte(ln), &f); err != nil {
			t.Fatalf("bad frame %q: %v", ln, err)
		}
		frames = append(frames, f)
	}
	if frames[0].Kind != FrameHeader || frames[0].Envelope == nil || frames[0].RowCount != 2 {
		t.Errorf("header frame = %+v", frames[0])
	}
	if frames[1].Kind != FrameRow || frames[2].Kind != FrameRow {
		t.Errorf("middle frames = %q, %q, want rows", frames[1].Kind, frames[2].Kind)
	}
	if frames[1].Aggs[0].Value != 30 || frames[2].Aggs[0].Value != 70 {
		t.Errorf("streamed sums = %v, %v, want 30, 70", frames[1].Aggs[0].Value, frames[2].Aggs[0].Value)
	}
	last := frames[len(frames)-1]
	if last.Kind != FrameSummary || last.Envelope == nil || last.Stats == nil {
		t.Errorf("summary frame = %+v", last)
	}
}

// TestHealthReadyAndTenantRoutes covers the probe endpoints and the
// per-tenant debug delegation.
func TestHealthReadyAndTenantRoutes(t *testing.T) {
	dbA, dbB := tinyDB(t), tinyDB(t)
	if _, err := dbA.Query("SELECT g, SUM(v) FROM t GROUP BY g APPROX"); err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{
		Tenants:       []Tenant{{Name: "a", DB: dbA}, {Name: "b", DB: dbB}},
		DefaultTenant: "a",
	})

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, string(b)
	}

	if resp, body := get("/healthz"); resp.StatusCode != 200 || body != "ok\n" {
		t.Errorf("healthz = %d %q", resp.StatusCode, body)
	}
	resp, body := get("/readyz")
	if resp.StatusCode != 200 {
		t.Errorf("readyz = %d:\n%s", resp.StatusCode, body)
	}
	for _, probe := range []string{"accepting", "store:a", "governor:a", "store:b", "governor:b"} {
		if !strings.Contains(body, probe) {
			t.Errorf("readyz missing probe %q:\n%s", probe, body)
		}
	}

	if resp, body := get("/metrics"); resp.StatusCode != 200 ||
		!strings.Contains(body, "laqy_server_requests_total") {
		t.Errorf("server metrics = %d:\n%s", resp.StatusCode, body)
	}
	if resp, body := get("/tenants/a/metrics"); resp.StatusCode != 200 ||
		!strings.Contains(body, "laqy_queries_total") {
		t.Errorf("tenant metrics = %d:\n%s", resp.StatusCode, body)
	}
	if resp, body := get("/tenants/a/debug/laqy/samples"); resp.StatusCode != 200 ||
		!strings.Contains(body, "input=t") {
		t.Errorf("tenant samples = %d:\n%s", resp.StatusCode, body)
	}
	if resp, _ := get("/tenants/ghost/metrics"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("ghost tenant = %d, want 404", resp.StatusCode)
	}

	// Probe endpoints are read-only.
	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/metrics.json"} {
		r, err := http.Post(hs.URL+path, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, r.StatusCode)
		}
	}
}

// TestReadyzNoTables flags a tenant without registered tables as unready.
func TestReadyzNoTables(t *testing.T) {
	_, hs := newTestServer(t, Config{
		Tenants: []Tenant{{Name: "empty", DB: laqy.Open(laqy.Config{})}},
	})
	resp, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz with empty tenant = %d, want 503", resp.StatusCode)
	}
}

// TestPanicIsolation proves a panicking handler becomes a 500 envelope
// with the request ID, never a dead process.
func TestPanicIsolation(t *testing.T) {
	s, err := New(Config{Tenants: []Tenant{{Name: "acme", DB: tinyDB(t)}}})
	if err != nil {
		t.Fatal(err)
	}
	h := s.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("query exploded")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var env Envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if env.Error == nil || env.Error.Code != "internal" {
		t.Errorf("error = %+v, want internal", env.Error)
	}
	if env.RequestID == "" || rec.Header().Get("X-Laqy-Request-Id") != env.RequestID {
		t.Errorf("request id not threaded: env %q header %q",
			env.RequestID, rec.Header().Get("X-Laqy-Request-Id"))
	}
	if got := s.Metrics().Counters[obs.MSrvPanics]; got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}
	if got := s.Metrics().Counters[obs.MSrvResponses5xx]; got != 1 {
		t.Errorf("5xx counter = %d, want 1", got)
	}
}

// TestRequestIDThreadedToTrace confirms the wire request ID reaches the
// engine's trace spans (the obs plumbing behind log correlation).
func TestRequestIDThreadedToTrace(t *testing.T) {
	_, hs := newTestServer(t, Config{Tenants: []Tenant{{Name: "acme", DB: tinyDB(t)}}})
	resp, env := postQuery(t, hs.URL, QueryRequest{
		SQL: "EXPLAIN ANALYZE SELECT g, SUM(v) FROM t GROUP BY g"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (error %+v)", resp.StatusCode, env.Error)
	}
	if !strings.Contains(env.Explain, "request_id="+env.RequestID) {
		t.Errorf("trace missing request_id=%s:\n%s", env.RequestID, env.Explain)
	}
}

// TestDrainLifecycle runs a real listener through the full drain: ready →
// draining (new queries 503 + Retry-After, readyz 503) → final save →
// listener closed → every goroutine Start spawned gone → idempotent repeat.
func TestDrainLifecycle(t *testing.T) {
	memfs := iofault.NewMem()
	db := tinyDB(t)
	if _, err := db.Query("SELECT g, SUM(v) FROM t GROUP BY g APPROX"); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Tenants:      []Tenant{{Name: "acme", DB: db}},
		SampleDir:    "/laqy",
		SaveInterval: time.Hour, // only the final drain save should run
		FS:           memfs,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Connections earlier tests left idle would wind down mid-test and
	// mask a leak of the same size: settle them before counting.
	http.DefaultClient.CloseIdleConnections()
	before := settledGoroutines(math.MaxInt)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()

	if resp, _ := http.Get(base + "/readyz"); resp.StatusCode != 200 {
		t.Fatalf("readyz before drain = %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp, env := postQuery(t, base, QueryRequest{SQL: "SELECT g, SUM(v) FROM t GROUP BY g"}); resp.StatusCode != 200 {
		t.Fatalf("query before drain = %d (%+v)", resp.StatusCode, env.Error)
	}

	// Drain while holding a keep-alive connection open: requests on it
	// after the flip must be rejected with the draining contract.
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	if resp, err := client.Get(base + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// Flip draining first (white-box) to observe the rejection contract
	// deterministically, then complete the real shutdown.
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	body, _ := json.Marshal(QueryRequest{SQL: "SELECT g, SUM(v) FROM t GROUP BY g"})
	resp, err := client.Post(base+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var env Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query during drain = %d, want 503", resp.StatusCode)
	}
	if env.Error == nil || env.Error.Code != "draining" {
		t.Errorf("drain error = %+v, want draining", env.Error)
	}
	if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || sec < 1 {
		t.Errorf("drain Retry-After = %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}
	if rz, err := client.Get(base + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, rz.Body)
		rz.Body.Close()
		if rz.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("readyz during drain = %d, want 503", rz.StatusCode)
		}
	}
	if got := s.Metrics().Counters[obs.MSrvDrainRejected]; got != 1 {
		t.Errorf("drain rejected counter = %d, want 1", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := s.Metrics().Gauges[obs.MSrvDraining]; got != 1 {
		t.Errorf("draining gauge = %d, want 1", got)
	}
	// The final drain save persisted the tenant's store.
	if got := s.Metrics().Counters[obs.MSrvSaves]; got < 1 {
		t.Errorf("saves counter = %d, want >= 1", got)
	}
	if f, err := memfs.Open("/laqy/acme.laqy"); err != nil {
		t.Errorf("persisted store missing: %v", err)
	} else {
		f.Close()
	}
	// The listener is down.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still accepting after drain")
	}
	// Shutdown joined everything Start spawned (listener, saver): the count
	// is back to the pre-Start one exactly — no "+2" allowance, which is
	// what lets a saver that never exits pass the chaos harness.
	client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	if after := settledGoroutines(before); after != before {
		t.Errorf("goroutines after Shutdown = %d, before Start = %d", after, before)
	}
	// Idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

// settledGoroutines polls runtime.NumGoroutine until it is at most atMost
// and has read the same for 50 ms, or two seconds pass, and returns the
// last reading.
func settledGoroutines(atMost int) int {
	n, stable := runtime.NumGoroutine(), 0
	for i := 0; i < 200 && (n > atMost || stable < 5); i++ {
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			stable++
		} else {
			n, stable = m, 0
		}
	}
	return n
}

// TestShutdownCancelsInflightPastDeadline: with the drain budget already
// exhausted, registered in-flight queries are canceled synchronously.
func TestShutdownCancelsInflightPastDeadline(t *testing.T) {
	s, err := New(Config{Tenants: []Tenant{{Name: "acme", DB: tinyDB(t)}}})
	if err != nil {
		t.Fatal(err)
	}
	canceled := make(chan struct{})
	s.mu.Lock()
	s.inflight[1] = func() { close(canceled) }
	s.mu.Unlock()

	ctx, cancel := context.WithDeadline(context.Background(), obs.Clock().Add(-time.Second))
	defer cancel()
	_ = s.Shutdown(ctx)
	select {
	case <-canceled:
	default:
		t.Error("in-flight cancel did not fire with exhausted drain budget")
	}
}

// TestPersistenceRoundtrip: samples saved by one daemon are loaded by the
// next (warm restarts keep the store), and injected save faults surface
// in metrics without breaking serving.
func TestPersistenceRoundtrip(t *testing.T) {
	memfs := iofault.NewMem()
	db1 := tinyDB(t)
	if _, err := db1.Query("SELECT g, SUM(v) FROM t GROUP BY g APPROX"); err != nil {
		t.Fatal(err)
	}
	s1, err := New(Config{
		Tenants:   []Tenant{{Name: "acme", DB: db1}},
		SampleDir: "/laqy",
		FS:        memfs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.saveAll(); err != nil {
		t.Fatal(err)
	}

	db2 := tinyDB(t)
	if db2.SampleStoreStats().Samples != 0 {
		t.Fatal("fresh DB unexpectedly has samples")
	}
	if _, err := New(Config{
		Tenants:   []Tenant{{Name: "acme", DB: db2}},
		SampleDir: "/laqy",
		FS:        memfs,
	}); err != nil {
		t.Fatal(err)
	}
	if got := db2.SampleStoreStats().Samples; got != 1 {
		t.Errorf("restored samples = %d, want 1", got)
	}

	// Injected fault: counted, logged, not fatal.
	memfs.FailAt(iofault.OpSync, 1, fmt.Errorf("injected"))
	_ = s1.saveAll()
	if got := s1.Metrics().Counters[obs.MSrvSaveErrors]; got < 1 {
		t.Errorf("save errors counter = %d, want >= 1", got)
	}
}

// TestSampleDirCreated: on the real filesystem (the default FS), New must
// create a missing SampleDir — otherwise every save fails with ENOENT
// until an operator pre-creates it.
func TestSampleDirCreated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "samples")
	db := tinyDB(t)
	if _, err := db.Query("SELECT g, SUM(v) FROM t GROUP BY g APPROX"); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Tenants: []Tenant{{Name: "acme", DB: db}}, SampleDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.saveAll(); err != nil {
		t.Fatalf("save into freshly created dir: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "acme.laqy")); err != nil {
		t.Fatalf("persisted file missing: %v", err)
	}
}

// TestNewValidation pins config rejection.
func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no tenants accepted")
	}
	if _, err := New(Config{Tenants: []Tenant{{Name: "", DB: tinyDB(t)}}}); err == nil {
		t.Error("empty tenant name accepted")
	}
	if _, err := New(Config{Tenants: []Tenant{{Name: "a/b", DB: tinyDB(t)}}}); err == nil {
		t.Error("tenant name with separator accepted")
	}
	db := tinyDB(t)
	if _, err := New(Config{Tenants: []Tenant{{Name: "a", DB: db}, {Name: "a", DB: db}}}); err == nil {
		t.Error("duplicate tenant accepted")
	}
	if _, err := New(Config{Tenants: []Tenant{{Name: "a", DB: db}}, DefaultTenant: "b"}); err == nil {
		t.Error("unknown default tenant accepted")
	}
	// Multi-tenant with no default: requests must name a tenant.
	s, err := New(Config{Tenants: []Tenant{{Name: "a", DB: db}, {Name: "b", DB: tinyDB(t)}}})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	resp, env := postQuery(t, hs.URL, QueryRequest{SQL: "SELECT g FROM t GROUP BY g"})
	if resp.StatusCode != http.StatusNotFound || env.Error == nil || env.Error.Code != "unknown_tenant" {
		t.Errorf("defaultless multi-tenant = %d %+v, want 404 unknown_tenant", resp.StatusCode, env.Error)
	}
}

// TestCanceledClientReleasesSlots is the HTTP-level half of the root
// cancel regression: a client that disconnects mid-query must leave the
// tenant's governor fully drained.
func TestCanceledClientReleasesSlots(t *testing.T) {
	db := laqy.Open(laqy.Config{
		Workers:  1,
		DefaultK: 64,
		Seed:     5,
		Governor: laqy.GovernorConfig{Slots: 4, QueueDepth: 8},
	})
	if err := db.LoadSSB(20_000, 2); err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{Tenants: []Tenant{{Name: "acme", DB: db}}})

	q := `SELECT d_year, SUM(lo_revenue) FROM lineorder, date
		WHERE lo_orderdate = d_datekey GROUP BY d_year`
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			body, _ := json.Marshal(QueryRequest{SQL: q})
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
				hs.URL+"/v1/query", bytes.NewReader(body))
			go cancel() // disconnect immediately — races the query on purpose
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	deadline := obs.Clock().Add(5 * time.Second)
	for {
		st := db.GovernorStats()
		if st.SlotsInUse == 0 && st.Queued == 0 && st.MemUsed == 0 {
			break
		}
		if obs.Clock().After(deadline) {
			t.Fatalf("governor did not drain after canceled clients: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	// The tenant still answers.
	if resp, env := postQuery(t, hs.URL, QueryRequest{SQL: q}); resp.StatusCode != 200 {
		t.Fatalf("post-cancel query = %d (%+v)", resp.StatusCode, env.Error)
	}
}
