package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"laqy/internal/server"
)

func TestParseFlags(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != ":8632" || len(o.tenants) != 1 || o.tenants[0] != "main" {
		t.Errorf("defaults = %+v", o)
	}
	if o.defaultTenant != "main" {
		t.Errorf("default tenant = %q, want main (first tenant)", o.defaultTenant)
	}

	o, err = parseFlags([]string{"-tenants", "a, b ,c", "-default-tenant", "b",
		"-timeout", "5s", "-rows", "1000"})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.tenants) != 3 || o.tenants[1] != "b" {
		t.Errorf("tenants = %v", o.tenants)
	}
	if o.defaultTenant != "b" || o.timeout != 5*time.Second || o.rows != 1000 {
		t.Errorf("parsed = %+v", o)
	}

	if _, err := parseFlags([]string{"-tenants", " , "}); err == nil {
		t.Error("empty tenant list accepted")
	}
	if _, err := parseFlags([]string{"-rows", "0"}); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := parseFlags([]string{"-timeout", "soon"}); err == nil {
		t.Error("malformed duration accepted")
	}
}

// TestDaemonSmoke boots a tiny two-tenant daemon end to end: query both
// tenants over the wire, then drain. Its 4 000 lineorder rows outnumber the
// 2 520 date rows, so lineorder is the fact table of the date join.
func TestDaemonSmoke(t *testing.T) {
	o, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-tenants", "a,b",
		"-rows", "4000", "-k", "128", "-drain", "5s"})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := buildServer(o, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start(o.addr)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()

	for _, tenant := range []string{"", "b"} { // "" exercises the default
		body, _ := json.Marshal(server.QueryRequest{
			SQL: `SELECT d_year, COUNT(*) FROM lineorder, date
				WHERE lo_orderdate = d_datekey GROUP BY d_year APPROX`,
			Tenant: tenant,
		})
		resp, err := http.Post(base+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var env server.Envelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tenant %q: status %d (%+v)", tenant, resp.StatusCode, env.Error)
		}
		if env.RowCount == 0 || !env.Approximate {
			t.Errorf("tenant %q: rows=%d approximate=%v", tenant, env.RowCount, env.Approximate)
		}
		want := tenant
		if want == "" {
			want = "a"
		}
		if env.Tenant != want {
			t.Errorf("answered tenant = %q, want %q", env.Tenant, want)
		}
	}

	done := srv.DrainOnSignal() // no signals: joined below via Shutdown
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("signal watcher did not join after Shutdown")
	}
}
