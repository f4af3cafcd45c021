package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"laqy"
)

func TestWireVersionPinning(t *testing.T) {
	_, hs := newTestServer(t, Config{Tenants: []Tenant{{Name: "acme", DB: tinyDB(t)}}})
	const sql = "SELECT g, SUM(v) FROM t GROUP BY g"

	// Absent version (pre-versioning client) and an explicit current pin
	// both succeed.
	for _, v := range []int{0, WireVersion} {
		resp, env := postQuery(t, hs.URL, QueryRequest{V: v, SQL: sql})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("v=%d: status %d (error %+v)", v, resp.StatusCode, env.Error)
		}
	}

	// Any other version is refused before the SQL is even looked at.
	resp, env := postQuery(t, hs.URL, QueryRequest{V: 2, SQL: "not even sql"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("v=2: status %d, want 400", resp.StatusCode)
	}
	if env.Error == nil || env.Error.Code != "bad_request" ||
		!strings.Contains(env.Error.Message, "unsupported request version 2") {
		t.Fatalf("v=2 error = %+v", env.Error)
	}
}

func TestWireOptionsForwarded(t *testing.T) {
	// A segmented multi-row tenant: option fields must reach the engine and
	// the segment stats must come back on the wire.
	const n = 150000
	db := laqy.Open(laqy.Config{Workers: 2, DefaultK: 256, Seed: 9, SegmentRows: 1})
	keys := make([]int64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i)
		vals[i] = int64(i % 100)
	}
	if err := db.Register(laqy.NewTable("t").Int64("key", keys).Int64("v", vals)); err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{Tenants: []Tenant{{Name: "acme", DB: db}}})
	const sql = "SELECT SUM(v) FROM t WHERE key BETWEEN 0 AND 149999 APPROX WITH K 400"

	resp, env := postQuery(t, hs.URL, QueryRequest{V: WireVersion, SQL: sql})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (error %+v)", resp.StatusCode, env.Error)
	}
	if env.Stats == nil || env.Stats.Segments < 2 {
		t.Fatalf("stats = %+v, want a multi-segment build", env.Stats)
	}

	// Clients still sending retired fields keep working: unknown fields are
	// ignored. An old client's segment_parallelism — negative too — runs
	// at the engine's parallelism, which the stats report (a different
	// stratification, so the stored sample cannot answer it).
	for i, body := range []string{
		`{"sql": "SELECT v, SUM(key) FROM t GROUP BY v APPROX WITH K 400", "segment_parallelism": 1}`,
		`{"sql": "SELECT SUM(v) FROM t WHERE key BETWEEN 0 AND 999", "segment_parallelism": -3}`,
		`{"sql": "SELECT SUM(v) FROM t WHERE key BETWEEN 0 AND 999", "disable_zone_maps": true}`,
	} {
		raw, err := http.Post(hs.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var env Envelope
		err = json.NewDecoder(raw.Body).Decode(&env)
		raw.Body.Close()
		if err != nil || raw.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%v), want 200", body, raw.StatusCode, err)
		}
		if i == 0 && (env.Stats == nil || env.Stats.Segments < 2 || env.Stats.SegmentParallelism < 1) {
			t.Fatalf("stats = %+v, want a multi-segment build and the parallelism it ran at", env.Stats)
		}
	}
}
