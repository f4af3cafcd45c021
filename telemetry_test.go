package laqy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"laqy/internal/obs"
)

func loadSmallDB(t *testing.T, cfg Config) *DB {
	t.Helper()
	db := Open(cfg)
	if err := db.LoadSSB(5_000, 1); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestDBMetricsLifecycle drives one miss/partial/full sequence and checks
// the counters tell the same story as the store stats.
func TestDBMetricsLifecycle(t *testing.T) {
	db := loadSmallDB(t, Config{Workers: 1, DefaultK: 128, Seed: 3})
	q := func(hi int) string {
		return fmt.Sprintf(`SELECT lo_quantity, SUM(lo_revenue) FROM lineorder
			WHERE lo_intkey BETWEEN 0 AND %d GROUP BY lo_quantity APPROX`, hi)
	}
	for _, hi := range []int{1000, 2000, 2000} {
		if _, err := db.Query(q(hi)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Query(`SELECT COUNT(*) FROM lineorder`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT BROKEN`); err == nil {
		t.Fatal("want parse error")
	}

	m := db.Metrics()
	wantCounters := map[string]int64{
		obs.MParseTotal:                   5,
		obs.MParseErrors:                  1,
		obs.MQueriesTotal:                 4,
		obs.MStoreLookupMiss:              1,
		obs.MStoreLookupPartial:           1,
		obs.MStoreLookupFull:              1,
		obs.MSamplerOnline:                1,
		obs.MSamplerPartial:               1,
		obs.MSamplerOffline:               1,
		obs.MModePrefix + "exact_total":   1,
		obs.MModePrefix + "online_total":  1,
		obs.MModePrefix + "partial_total": 1,
		obs.MModePrefix + "offline_total": 1,
	}
	for name, want := range wantCounters {
		if got := m.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := m.Gauges[obs.MStoreSamples]; got != 1 {
		t.Errorf("%s = %d, want 1", obs.MStoreSamples, got)
	}
	h := m.Histograms[obs.MQuerySeconds]
	if h.Count != 4 || h.Sum <= 0 || h.Mean <= 0 {
		t.Errorf("query histogram = %+v", h)
	}
}

// TestDisableMetrics asserts the DisableMetrics no-op path: queries still
// work, snapshots are empty, and the registry stays out of the process
// aggregate.
func TestDisableMetrics(t *testing.T) {
	db := loadSmallDB(t, Config{Workers: 1, DefaultK: 128, Seed: 3, DisableMetrics: true})
	res, err := db.Query(`SELECT lo_quantity, COUNT(*) FROM lineorder GROUP BY lo_quantity APPROX`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeOnline {
		t.Fatalf("mode = %q", res.Mode)
	}
	m := db.Metrics()
	if len(m.Counters) != 0 || len(m.Gauges) != 0 || len(m.Histograms) != 0 {
		t.Fatalf("disabled metrics snapshot not empty: %+v", m)
	}
	// Tracing is independent of metrics.
	db.SetTracing(true)
	res, err = db.Query(`SELECT COUNT(*) FROM lineorder APPROX`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("tracing must stay available with DisableMetrics")
	}
}

// TestPackageMetricsAggregates asserts laqy.Metrics() merges across DBs.
func TestPackageMetricsAggregates(t *testing.T) {
	before := Metrics().Counters[obs.MQueriesTotal]
	db1 := loadSmallDB(t, Config{Workers: 1, Seed: 1})
	db2 := loadSmallDB(t, Config{Workers: 1, Seed: 2})
	for _, db := range []*DB{db1, db2} {
		if _, err := db.Query(`SELECT COUNT(*) FROM lineorder APPROX`); err != nil {
			t.Fatal(err)
		}
	}
	after := Metrics().Counters[obs.MQueriesTotal]
	if after-before != 2 {
		t.Fatalf("process-wide queries delta = %d, want 2", after-before)
	}
}

// TestHandlerEndpoints exercises the three debug endpoints.
func TestHandlerEndpoints(t *testing.T) {
	db := loadSmallDB(t, Config{Workers: 1, DefaultK: 128, Seed: 3})
	if _, err := db.Query(`SELECT lo_quantity, SUM(lo_revenue) FROM lineorder
		WHERE lo_intkey BETWEEN 0 AND 1000 GROUP BY lo_quantity APPROX`); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 1<<16)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d\n%s", path, resp.StatusCode, b.String())
		}
		return b.String(), resp.Header.Get("Content-Type")
	}

	prom, ct := get("/metrics")
	if !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content-type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE laqy_queries_total counter",
		"laqy_queries_total 1",
		"# TYPE laqy_query_seconds histogram",
		"laqy_query_seconds_bucket{le=\"+Inf\"} 1",
		"laqy_store_samples 1",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	js, ct := get("/metrics.json")
	if !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/metrics.json content-type = %q", ct)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(js), &decoded); err != nil {
		t.Fatalf("/metrics.json is not JSON: %v", err)
	}

	samples, _ := get("/debug/laqy/samples")
	if !strings.Contains(samples, "samples=1") || !strings.Contains(samples, "input=") {
		t.Errorf("/debug/laqy/samples output:\n%s", samples)
	}
}

// recordingLogger captures Logf calls.
type recordingLogger struct {
	mu    sync.Mutex
	lines []string
}

func (l *recordingLogger) Logf(level LogLevel, format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, level.String()+": "+fmt.Sprintf(format, args...))
}

// TestLoggerRouting: every level reaches Config.Logger; with none set, logf
// falls back to the standard logger for LogWarn and above only.
func TestLoggerRouting(t *testing.T) {
	logger := &recordingLogger{}
	db := Open(Config{Logger: logger})
	db.logf(LogDebug, "debug %d", 1)
	db.logf(LogWarn, "warn %d", 2)
	if len(logger.lines) != 2 || logger.lines[0] != "debug: debug 1" || logger.lines[1] != "warn: warn 2" {
		t.Fatalf("logger lines = %v", logger.lines)
	}

	var std bytes.Buffer
	log.SetOutput(&std)
	defer log.SetOutput(os.Stderr)
	db2 := Open(Config{})
	db2.logf(LogDebug, "quiet")
	db2.logf(LogInfo, "quiet")
	db2.logf(LogWarn, "loud %d", 3)
	if got := std.String(); !strings.HasSuffix(got, "loud 3\n") || strings.Contains(got, "quiet") {
		t.Fatalf("standard logger received %q, want only the warning", got)
	}
}

// TestModeStrings pins the public Mode enum's rendered names.
func TestModeStrings(t *testing.T) {
	want := map[Mode]string{
		ModeExact:         "exact",
		ModeOnline:        "online",
		ModePartial:       "partial",
		ModeOffline:       "offline",
		ModeExactFallback: "exact_fallback",
	}
	for mode, s := range want {
		if mode.String() != s {
			t.Errorf("%d.String() = %q, want %q", mode, mode.String(), s)
		}
	}
	if ModeExact.Approximate() || !ModePartial.Approximate() || !ModeOnline.Approximate() ||
		!ModeOffline.Approximate() || ModeExactFallback.Approximate() {
		t.Error("Approximate() classification wrong")
	}
}
