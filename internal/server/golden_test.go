package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"laqy"
	"laqy/internal/governor"
	"laqy/internal/obs"
)

// goldenPath holds whole response bodies recorded with the reflection
// encoder (encoding/json) of commit 8bf4c09, before the append encoder
// replaced it: renderGolden(goldenResponses(t)) written out on that tree.
// The wire contract is those bytes: any change to them is a wire change,
// not an encoder detail.
const goldenPath = "testdata/bodies.golden"

// wallNanos matches the engine's phase timings, which read the wall clock
// below the obs seam; they are the only bytes a golden cannot pin.
var wallNanos = regexp.MustCompile(`"(scan|process|merge|total)_ns":[0-9]+`)

// goldenResponse is one recorded exchange: the status, the headers a client
// branches on, and the body verbatim.
type goldenResponse struct {
	name        string
	status      int
	contentType string
	retryAfter  string
	body        string
}

func (g goldenResponse) String() string {
	return fmt.Sprintf("=== %s status=%d content-type=%q retry-after=%q\n%s",
		g.name, g.status, g.contentType, g.retryAfter, g.body)
}

// goldenResponses drives laqyd's handler through every answer shape of the
// wire contract — exact group-by (int and string groups), online,
// offline repeated, offline narrowed, a stale 206, EXPLAIN text, an NDJSON
// stream, the handler's own error envelopes and each mapError code — under
// a frozen clock and a fixed request-ID base, so every byte but the
// engine's wall-clock phase timings (zeroed, wallNanos) is reproducible.
func goldenResponses(t *testing.T) []goldenResponse {
	t.Helper()
	db := laqy.Open(laqy.Config{Workers: 1, DefaultK: 32, Seed: 5})
	if err := db.LoadSSB(30_000, 3); err != nil {
		t.Fatal(err)
	}
	frozen := obs.Clock()
	defer obs.SetClock(func() time.Time { return frozen })()
	s, err := New(Config{Tenants: []Tenant{{Name: "acme", DB: db}}})
	if err != nil {
		t.Fatal(err)
	}
	s.idBase = "601de000"
	h := s.Handler()

	var out []goldenResponse
	record := func(name string, rec *httptest.ResponseRecorder) {
		out = append(out, goldenResponse{
			name:        name,
			status:      rec.Code,
			contentType: rec.Header().Get("Content-Type"),
			retryAfter:  rec.Header().Get("Retry-After"),
			body:        wallNanos.ReplaceAllString(rec.Body.String(), `"${1}_ns":0`),
		})
	}
	serve := func(name, method, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, "/v1/query", strings.NewReader(body)))
		record(name, rec)
	}
	query := func(name string, req QueryRequest) {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		serve(name, http.MethodPost, string(body))
	}

	const q1 = `SELECT d_year, SUM(lo_revenue), AVG(lo_quantity), COUNT(*) FROM lineorder, date
		WHERE lo_orderdate = d_datekey AND lo_intkey BETWEEN 0 AND %d GROUP BY d_year`
	query("exact-groupby", QueryRequest{SQL: fmt.Sprintf(q1, 20000)})
	query("exact-string-groups", QueryRequest{SQL: `SELECT d_year, c_region, SUM(lo_revenue - lo_supplycost)
		FROM lineorder, customer, date WHERE lo_custkey = c_custkey AND lo_orderdate = d_datekey
		GROUP BY d_year, c_region ORDER BY d_year`})
	query("online", QueryRequest{SQL: fmt.Sprintf(q1, 20000) + " APPROX"})
	query("offline-repeated", QueryRequest{SQL: fmt.Sprintf(q1, 20000) + " APPROX"})
	query("offline-narrowed", QueryRequest{SQL: fmt.Sprintf(q1, 9000) + " APPROX"})
	query("explain", QueryRequest{SQL: "EXPLAIN " + fmt.Sprintf(q1, 20000) + " APPROX"})
	query("ndjson", QueryRequest{SQL: fmt.Sprintf(q1, 9000) + " APPROX", Stream: true})

	// Glacial scans: the wider range cannot afford its Δ-scan, so the stored
	// sample answers stale, extrapolated and labeled.
	db.SetScanCostNanos(1e7)
	query("stale-206", QueryRequest{SQL: fmt.Sprintf(q1, 40000) + " APPROX", TimeoutMS: 10_000})
	db.SetScanCostNanos(0)

	serve("method-not-allowed", http.MethodGet, "")
	serve("malformed-body", http.MethodPost, "{")
	query("missing-sql", QueryRequest{})
	query("parse-error", QueryRequest{SQL: "SELEC <&>  "})
	query("unknown-tenant", QueryRequest{SQL: "SELECT 1", Tenant: "ghost"})

	for _, tc := range []struct {
		name string
		err  error
	}{
		{"map-overloaded", &governor.OverloadedError{Reason: "queue full", RetryAfter: 1200 * time.Millisecond}},
		{"map-overloaded-sentinel", fmt.Errorf("wrapped: %w", governor.ErrOverloaded)},
		{"map-memory-budget", &governor.MemoryBudgetError{Requested: 10 << 20, Limit: 5 << 20}},
		{"map-timeout", context.DeadlineExceeded},
		{"map-canceled", context.Canceled},
		{"map-bad-request", fmt.Errorf("sql: unexpected token \"<\" at 7\n\tin \"SELECT <\"")},
	} {
		status, werr := mapError(tc.err)
		rec := httptest.NewRecorder()
		writeEnvelope(rec, status, &Envelope{RequestID: "req-" + tc.name, Tenant: "acme", Error: werr})
		record(tc.name, rec)
	}
	return out
}

// renderGolden lays responses out as the golden file holds them.
func renderGolden(rs []goldenResponse) string {
	var buf bytes.Buffer
	for i, g := range rs {
		if i > 0 {
			buf.WriteByte('\n')
		}
		buf.WriteString(g.String())
	}
	return buf.String()
}

// TestGoldenBodies pins every response body, byte for byte, to the one the
// reflection encoder produced for the same exchange.
func TestGoldenBodies(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := renderGolden(goldenResponses(t))
	if got == string(raw) {
		return
	}
	gs, ws := strings.Split(got, "\n=== "), strings.Split(string(raw), "\n=== ")
	for i := 0; i < len(gs) && i < len(ws); i++ {
		if gs[i] != ws[i] {
			t.Fatalf("response %d differs from the golden:\n got: %q\nwant: %q", i, gs[i], ws[i])
		}
	}
	t.Fatalf("%d responses, golden has %d", len(gs), len(ws))
}
