package laqy

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// These tests pin the governor's public behavior end to end: admission
// spans in EXPLAIN ANALYZE, the deadline degradation ladder (exact →
// approximate → stale stored serve), typed overload errors, and the
// default query timeout. Scan cost is stubbed via the governor's frozen
// cost model so deadline pressure is simulated, not slept for.

// loadGoverned opens a 1-worker DB over SSB data and warms the sample
// store with an APPROX query on lo_intkey ∈ [0,10000] (stored online
// build, 7 d_year strata).
func loadGoverned(t *testing.T, cfg Config) *DB {
	t.Helper()
	db := Open(cfg)
	if err := db.LoadSSB(30_000, 3); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(ssbRange("10000", false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeOnline {
		t.Fatalf("warmup mode = %v, want online", res.Mode)
	}
	return db
}

// ssbRange renders the shared test query; analyze selects EXPLAIN ANALYZE.
func ssbRange(hi string, analyze bool) string {
	q := `SELECT d_year, SUM(lo_revenue) FROM lineorder, date
		WHERE lo_orderdate = d_datekey AND lo_intkey BETWEEN 0 AND ` + hi + `
		GROUP BY d_year APPROX`
	if analyze {
		return "EXPLAIN ANALYZE " + q
	}
	return q
}

// TestDeadlineDegradesExactToApproxGolden is the ISSUE's acceptance
// scenario: an exact query whose predicted scan misses its deadline is
// answered from the stored sample instead, labeled exact_to_approx, with
// the admission span and degradation annotation visible in the EXPLAIN
// ANALYZE trace.
func TestDeadlineDegradesExactToApproxGolden(t *testing.T) {
	db := loadGoverned(t, Config{Workers: 1, DefaultK: 256, Seed: 5})
	// 1ms/row: the 30000-row exact scan is predicted at 30s against a 10s
	// deadline (degrade), but a quarter-scan would still fit (no reuse-only
	// pressure).
	db.gov.SetScanCost(1e6)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	exact := `EXPLAIN ANALYZE SELECT d_year, SUM(lo_revenue) FROM lineorder, date
		WHERE lo_orderdate = d_datekey AND lo_intkey BETWEEN 0 AND 10000
		GROUP BY d_year`
	res, err := db.QueryContext(ctx, exact)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Approximate || res.Mode != ModeOffline {
		t.Fatalf("approximate=%v mode=%v, want approximate offline serve", res.Approximate, res.Mode)
	}
	if res.Stats.RowsScanned != 0 {
		t.Fatalf("scanned %d rows, want 0 (offline serve)", res.Stats.RowsScanned)
	}
	if len(res.Degradations) != 1 || res.Degradations[0].Step != DegradeExactToApprox {
		t.Fatalf("degradations = %v, want one exact_to_approx", res.Degradations)
	}
	want := strings.Join([]string{
		"query <dur> [mode=offline rows=7 degraded=exact_to_approx (deadline pressure)]",
		"  parse <dur>",
		"  plan <dur>",
		"  admission <dur>",
		"  store lookup <dur> [reuse=full matched=lo_intkey ∈ [0,10000]]",
		"  tighten <dur>",
		"  estimate <dur> [strata=7 workers=1]",
	}, "\n")
	if got := scrubTrace(res.Explain); got != want {
		t.Errorf("degraded EXPLAIN ANALYZE trace:\n%s\nwant:\n%s", got, want)
	}
	if got := db.Metrics().Counters["laqy_governor_degrade_exact_to_approx_total"]; got != 1 {
		t.Errorf("degrade counter = %d, want 1", got)
	}
}

// TestDeadlineReuseOnlyServesStaleGolden pins the bottom rung: under
// severe deadline pressure a partially-covering stored sample is served
// as-is — zero rows scanned, extrapolated totals, widened CIs — labeled
// skip_delta with its coverage estimate.
func TestDeadlineReuseOnlyServesStaleGolden(t *testing.T) {
	db := loadGoverned(t, Config{Workers: 1, DefaultK: 256, Seed: 5})
	// 10ms/row: even a quarter of the predicted 300s scan misses the 10s
	// deadline, so only a zero-scan stored serve can answer in time.
	db.gov.SetScanCost(1e7)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	res, err := db.QueryContext(ctx, ssbRange("20000", true))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stale || res.Mode != ModeOffline {
		t.Fatalf("stale=%v mode=%v, want stale offline", res.Stale, res.Mode)
	}
	if res.Stats.RowsScanned != 0 {
		t.Fatalf("scanned %d rows, want 0 (no Δ-scan)", res.Stats.RowsScanned)
	}
	if len(res.Degradations) != 1 || res.Degradations[0].Step != DegradeSkipDelta {
		t.Fatalf("degradations = %v, want one skip_delta", res.Degradations)
	}
	want := strings.Join([]string{
		"query <dur> [mode=offline rows=7 degraded=skip_delta (deadline pressure; coverage 50%)]",
		"  parse <dur>",
		"  plan <dur>",
		"  admission <dur>",
		"  store lookup <dur> [reuse=partial matched=lo_intkey ∈ [0,10000] delta=lo_intkey∈[10001,20000]]",
		"  serve stored <dur> [missing=lo_intkey∈[10001,20000] degraded=skip_delta (deadline pressure; coverage 50%)]",
		"  estimate <dur> [strata=7 workers=1]",
	}, "\n")
	if got := scrubTrace(res.Explain); got != want {
		t.Errorf("stale EXPLAIN ANALYZE trace:\n%s\nwant:\n%s", got, want)
	}
	staleSum := sumAggs(res)

	// Undegraded, the same query Δ-samples the missing range; the stale
	// serve's extrapolated total should land in the same ballpark.
	db.gov.SetScanCost(0)
	full, err := db.Query(ssbRange("20000", false))
	if err != nil {
		t.Fatal(err)
	}
	if full.Mode != ModePartial || full.Stale {
		t.Fatalf("undegraded mode = %v stale=%v, want clean partial", full.Mode, full.Stale)
	}
	trueSum := sumAggs(full)
	if trueSum <= 0 || staleSum < 0.4*trueSum || staleSum > 2.5*trueSum {
		t.Fatalf("extrapolated SUM total = %v, want within [0.4,2.5]× of %v", staleSum, trueSum)
	}
}

// sumAggs totals the first aggregate across result rows.
func sumAggs(res *Result) float64 {
	var total float64
	for _, row := range res.Rows {
		total += row.Aggs[0].Value
	}
	return total
}

// TestOverloadReturnsTypedError: when the slot pool is held and the queue
// timeout elapses, Query fails fast with a typed *OverloadedError carrying
// a retry suggestion — it never hangs and never runs the query.
func TestOverloadReturnsTypedError(t *testing.T) {
	db := Open(Config{Workers: 1, DefaultK: 64, Seed: 2, Governor: GovernorConfig{
		Slots:        1,
		QueueDepth:   2,
		QueueTimeout: time.Millisecond,
	}})
	if err := db.LoadSSB(2_000, 1); err != nil {
		t.Fatal(err)
	}
	// Hold the only slot so the query must queue, then time out.
	lease, err := db.gov.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()

	_, err = db.Query(`SELECT lo_quantity, COUNT(*) FROM lineorder GROUP BY lo_quantity APPROX`)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadedError
	if !errors.As(err, &oe) || oe.RetryAfter <= 0 || oe.Reason != "queue timeout" {
		t.Fatalf("err = %#v, want queue-timeout OverloadedError with RetryAfter", err)
	}

	stats := db.GovernorStats()
	if stats.Slots != 1 || stats.SlotsInUse != 1 {
		t.Fatalf("GovernorStats = %+v, want 1/1 slots", stats)
	}
}

// TestDefaultQueryTimeoutApplies: a query arriving without a deadline
// inherits Config.DefaultQueryTimeout and aborts with DeadlineExceeded
// when it cannot finish (cold cost model: no degradation rung fires, the
// scan simply observes the expired context).
func TestDefaultQueryTimeoutApplies(t *testing.T) {
	db := Open(Config{Workers: 1, DefaultK: 64, Seed: 2, DefaultQueryTimeout: time.Nanosecond})
	if err := db.LoadSSB(2_000, 1); err != nil {
		t.Fatal(err)
	}
	_, err := db.Query(`SELECT lo_quantity, COUNT(*) FROM lineorder GROUP BY lo_quantity`)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestLadder pins the degradation ladder as a value: for each statement
// kind and deadline pressure (reuseOnly implies degrade, so six cases),
// the rungs execute walks, in order. A second rung is what runs when the
// first reports governor.ErrNoStoredSample.
func TestLadder(t *testing.T) {
	cases := []struct {
		name                       string
		approx, degrade, reuseOnly bool
		want                       []rung
	}{
		{"approx, no pressure", true, false, false, []rung{rungSample}},
		{"approx, degrade", true, true, false, []rung{rungSample}},
		{"approx, reuse-only: stored, else build anyway", true, true, true, []rung{rungStored, rungSample}},
		{"exact, no pressure", false, false, false, []rung{rungExact}},
		{"exact, degrade: sample, else exact", false, true, false, []rung{rungSample, rungExact}},
		{"exact, reuse-only: stored, else exact", false, true, true, []rung{rungStored, rungExact}},
	}
	for _, c := range cases {
		if got := ladder(c.approx, c.degrade, c.reuseOnly); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: ladder = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestLadderFallsThroughOnEmptyStore walks the two ErrNoStoredSample
// fall-throughs end to end: under reuse-only pressure with nothing stored,
// an approximate query builds its sample anyway and an exact one runs
// exact — both undegraded, neither refused.
func TestLadderFallsThroughOnEmptyStore(t *testing.T) {
	db := Open(Config{Workers: 1, DefaultK: 64, Seed: 2})
	if err := db.LoadSSB(2_000, 1); err != nil {
		t.Fatal(err)
	}
	db.gov.SetScanCost(1e9) // 1s/row: nothing but a stored serve fits 10s
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, c := range []struct {
		sql  string
		want Mode
	}{
		{`SELECT lo_quantity, COUNT(*) FROM lineorder GROUP BY lo_quantity`, ModeExact},
		{`SELECT lo_quantity, COUNT(*) FROM lineorder GROUP BY lo_quantity APPROX`, ModeOnline},
	} {
		res, err := db.QueryContext(ctx, c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if res.Mode != c.want || len(res.Degradations) != 0 || res.Stale {
			t.Fatalf("%s: mode=%v degradations=%v stale=%v, want undegraded %v",
				c.sql, res.Mode, res.Degradations, res.Stale, c.want)
		}
	}
}

// TestResizeRetryStaleServeIsLabelled: when the APPROX ERROR resize retry
// finds only a partially covering sample of the capacity it needs and the
// Δ-build is denied its memory, the retry is served from that stored
// sample as-is. The answer must carry Stale beside its skip_delta label,
// exactly as a first-pass stale serve does.
func TestResizeRetryStaleServeIsLabelled(t *testing.T) {
	// An unconstrained session builds a K=4096 sample of lo_intkey ∈
	// [0,10000] (large enough to hold every qualifying row) and saves it.
	path := filepath.Join(t.TempDir(), "samples.laqy")
	big := Open(Config{Workers: 1, Seed: 5})
	if err := big.LoadSSB(30_000, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := big.Query(ssbRange("10000", false) + " WITH K 4096"); err != nil {
		t.Fatal(err)
	}
	if err := big.SaveSamples(path); err != nil {
		t.Fatal(err)
	}

	// The constrained session first builds its own K=16 sample covering
	// [0,20000] (fits 64 KiB), then loads the big one: a K=4096 Δ-build
	// reserves ~3 MiB and is denied.
	db := Open(Config{Workers: 1, Seed: 5, Governor: GovernorConfig{QueryMemoryBytes: 64 << 10}})
	if err := db.LoadSSB(30_000, 3); err != nil {
		t.Fatal(err)
	}
	wide := ssbRange("20000", false) + " WITH K 16"
	if res, err := db.Query(wide); err != nil || res.Mode != ModeOnline || len(res.Degradations) != 0 {
		t.Fatalf("warmup: mode=%v degradations=%v err=%v, want clean online", res.Mode, res.Degradations, err)
	}
	if err := db.LoadSamples(path); err != nil {
		t.Fatal(err)
	}

	// First pass: offline from the K=16 sample, far off a 5% bound. Retry:
	// the resized K excludes that sample; the K=4096 one covers half.
	res, err := db.Query(wide, WithErrorBound(0.05, 0.95))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degradations) != 1 || res.Degradations[0].Step != DegradeSkipDelta ||
		res.Degradations[0].Reason != "memory budget" {
		t.Fatalf("degradations = %v, want one skip_delta (memory budget)", res.Degradations)
	}
	if !res.Stale {
		t.Fatalf("answer labelled %v but Stale = false", res.Degradations)
	}
	if res.Mode != ModeOffline || res.Stats.RowsScanned != 0 {
		t.Fatalf("mode=%v scanned=%d, want a zero-scan stored serve", res.Mode, res.Stats.RowsScanned)
	}
}
