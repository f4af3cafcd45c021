package server

import (
	"net/http"
	"sort"
	"sync"
	"testing"
	"time"

	"laqy"
	"laqy/internal/obs"
)

// TestTenantIsolationUnderSaturation is the per-tenant isolation property:
// a noisy tenant saturating its own admission slots must not degrade a
// quiet tenant — the quiet tenant sees zero overload rejections, its
// latency tail stays bounded, its governor queue never backs up, and its
// stored samples are not evicted. Tenancy here is real isolation (separate
// catalog, store, governor per DB), and this test pins that the serving
// layer preserves it end to end.
func TestTenantIsolationUnderSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("isolation property skipped in -short mode")
	}
	atLeastProcs(t, 2) // the noisy tenant's requests must overlap to saturate it

	noisy := laqy.Open(laqy.Config{
		Workers:  1,
		DefaultK: 128,
		Seed:     11,
		Governor: laqy.GovernorConfig{Slots: 2, QueueDepth: 2, QueueTimeout: time.Millisecond},
	})
	if err := noisy.LoadSSB(20_000, 2); err != nil {
		t.Fatal(err)
	}
	quiet := laqy.Open(laqy.Config{
		Workers:  1,
		DefaultK: 128,
		Seed:     12,
		Governor: laqy.GovernorConfig{Slots: 4, QueueDepth: 8},
	})
	if err := quiet.LoadSSB(5_000, 3); err != nil {
		t.Fatal(err)
	}
	// Warm the quiet tenant's store so eviction would be observable.
	warm := `SELECT d_year, SUM(lo_revenue) FROM lineorder, date
		WHERE lo_orderdate = d_datekey AND lo_intkey BETWEEN 0 AND 2000
		GROUP BY d_year APPROX`
	if _, err := quiet.Query(warm); err != nil {
		t.Fatal(err)
	}
	storeBefore := quiet.SampleStoreStats()

	_, hs := newTestServer(t, Config{Tenants: []Tenant{
		{Name: "noisy", DB: noisy},
		{Name: "quiet", DB: quiet},
	}})

	heavy := `SELECT d_year, SUM(lo_revenue) FROM lineorder, date
		WHERE lo_orderdate = d_datekey GROUP BY d_year`

	// Saturate the noisy tenant: 32 clients against a 2-slot pool with a
	// 2-deep queue and a 1ms queue timeout guarantees rejections.
	stormDone := make(chan struct{})
	var noisyRejections, noisyOK int
	var mu sync.Mutex
	go func() {
		defer close(stormDone)
		var wg sync.WaitGroup
		for c := 0; c < 32; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 12; i++ {
					resp, _ := postQuery(t, hs.URL, QueryRequest{SQL: heavy, Tenant: "noisy"})
					mu.Lock()
					switch resp.StatusCode {
					case http.StatusTooManyRequests:
						noisyRejections++
					case http.StatusOK, http.StatusPartialContent:
						noisyOK++
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}()

	// Meanwhile the quiet tenant runs sequential queries; record each
	// latency and watch its governor for any cross-tenant backpressure.
	const quietQueries = 50
	latencies := make([]time.Duration, 0, quietQueries)
	for i := 0; i < quietQueries; i++ {
		start := obs.Clock()
		resp, env := postQuery(t, hs.URL, QueryRequest{SQL: warm, Tenant: "quiet"})
		latencies = append(latencies, obs.Since(start))
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent {
			t.Fatalf("quiet query %d = %d (%+v): noisy tenant leaked pressure", i, resp.StatusCode, env.Error)
		}
		if st := quiet.GovernorStats(); st.Queued != 0 {
			t.Errorf("quiet tenant queue backed up (%d) during noisy storm", st.Queued)
		}
	}
	<-stormDone

	if noisyRejections == 0 {
		t.Fatal("noisy tenant was never saturated — the property was not exercised")
	}
	if noisyOK == 0 {
		t.Error("noisy tenant was starved entirely — rejection should shed load, not kill it")
	}

	// Latency tail: the quiet tenant's p99 stays bounded while its
	// neighbor thrashes. The bound is generous (CPU contention from the
	// storm is expected and allowed — admission interference is not).
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p99 := latencies[len(latencies)*99/100]
	t.Logf("noisy: ok=%d rejected=%d; quiet p50=%v p99=%v",
		noisyOK, noisyRejections, latencies[len(latencies)/2], p99)
	if p99 > 2*time.Second {
		t.Errorf("quiet tenant p99 = %v under noisy saturation, want < 2s", p99)
	}

	// The quiet tenant's stored samples survived untouched.
	storeAfter := quiet.SampleStoreStats()
	if storeAfter.Evictions != storeBefore.Evictions {
		t.Errorf("quiet tenant lost samples to eviction: %d → %d evictions",
			storeBefore.Evictions, storeAfter.Evictions)
	}
	if storeAfter.Samples < storeBefore.Samples {
		t.Errorf("quiet tenant samples shrank: %d → %d", storeBefore.Samples, storeAfter.Samples)
	}
}
