package server

import (
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

	// A forwarded option reaches the engine: serialized segment builds (a
	// different stratification, so the stored sample cannot answer it).
	resp, env = postQuery(t, hs.URL, QueryRequest{
		SQL:                "SELECT v, SUM(key) FROM t GROUP BY v APPROX WITH K 400",
		SegmentParallelism: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (error %+v)", resp.StatusCode, env.Error)
	}
	if env.Stats == nil || env.Stats.Segments < 2 || env.Stats.SegmentParallelism != 1 {
		t.Fatalf("serialized stats = %+v, want a multi-segment build at parallelism 1", env.Stats)
	}

	// There is no negative mode: the value is refused, typed.
	resp, env = postQuery(t, hs.URL, QueryRequest{SQL: sql, SegmentParallelism: -3})
	if resp.StatusCode != http.StatusBadRequest || env.Error == nil || env.Error.Code != "bad_request" ||
		!strings.Contains(env.Error.Message, "segment_parallelism") {
		t.Fatalf("negative parallelism: status %d error %+v, want a bad_request naming the field", resp.StatusCode, env.Error)
	}

	// A client still sending the retired disable_zone_maps field keeps
	// working: unknown fields are ignored and the answer is the same.
	raw, err := http.Post(hs.URL+"/v1/query", "application/json",
		strings.NewReader(`{"sql": "SELECT SUM(v) FROM t WHERE key BETWEEN 0 AND 999", "disable_zone_maps": true}`))
	if err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	if raw.StatusCode != http.StatusOK {
		t.Fatalf("retired field: status %d, want 200", raw.StatusCode)
	}
}
