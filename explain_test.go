package laqy

import (
	"regexp"
	"strings"
	"testing"
)

// durToken matches one rendered duration ("2.00ms", "25.0µs", "420ns",
// "1.20s") so golden comparisons can scrub wall-clock noise while keeping
// the tree shape, span names and deterministic attributes.
var durToken = regexp.MustCompile(`[0-9]+(?:\.[0-9]+)?(?:ns|µs|ms|s)`)

// scrubTrace normalizes a rendered trace: durations become <dur> and
// runs of spaces collapse (the renderer pads columns by duration width).
func scrubTrace(s string) string {
	s = durToken.ReplaceAllString(s, "<dur>")
	var out []string
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		trimmed := strings.TrimLeft(line, " ")
		indent := len(line) - len(trimmed)
		fields := strings.Join(strings.Fields(trimmed), " ")
		out = append(out, strings.Repeat(" ", indent)+fields)
	}
	return strings.Join(out, "\n")
}

// TestExplainAnalyzeGolden is the ISSUE's acceptance scenario: EXPLAIN
// ANALYZE on an SSB APPROX query run twice shows the online build first
// and the lazy partial reuse second, with per-phase timings. Workers: 1
// keeps morsel scheduling (and thus the trace) deterministic.
func TestExplainAnalyzeGolden(t *testing.T) {
	db := Open(Config{Workers: 1, DefaultK: 256, Seed: 5})
	if err := db.LoadSSB(30_000, 3); err != nil {
		t.Fatal(err)
	}
	query := func(hi int) string {
		return `EXPLAIN ANALYZE SELECT d_year, SUM(lo_revenue) FROM lineorder, date
			WHERE lo_orderdate = d_datekey AND lo_intkey BETWEEN 0 AND ` +
			map[int]string{10000: "10000", 20000: "20000"}[hi] + `
			GROUP BY d_year APPROX`
	}

	res, err := db.Query(query(10000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeOnline {
		t.Fatalf("first run mode = %q, want online", res.Mode)
	}
	if len(res.Rows) == 0 {
		t.Fatal("EXPLAIN ANALYZE must also return the result rows")
	}
	wantOnline := strings.Join([]string{
		"query <dur> [mode=online rows=7]",
		"  parse <dur>",
		"  plan <dur>",
		"  admission <dur>",
		"  store lookup <dur> [reuse=miss]",
		"  online sample <dur> [rows_scanned=30000 rows_selected=10001]",
		"    pipeline <dur> [workers=1 morsels=1 pruned=0 full=0 rows_scanned=30000 rows_selected=10001]",
		"  estimate <dur> [strata=7 workers=1]",
	}, "\n")
	if got := scrubTrace(res.Explain); got != wantOnline {
		t.Errorf("first EXPLAIN ANALYZE trace:\n%s\nwant:\n%s", got, wantOnline)
	}

	res2, err := db.Query(query(20000))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Mode != ModePartial {
		t.Fatalf("second run mode = %q, want partial", res2.Mode)
	}
	wantPartial := strings.Join([]string{
		"query <dur> [mode=partial rows=7]",
		"  parse <dur>",
		"  plan <dur>",
		"  admission <dur>",
		"  store lookup <dur> [reuse=partial matched=lo_intkey ∈ [0,10000] delta=lo_intkey∈[10001,20000]]",
		"  Δ-sample <dur> [missing=lo_intkey∈[10001,20000] rows_scanned=30000 rows_selected=10000]",
		"    pipeline <dur> [workers=1 morsels=1 pruned=0 full=0 rows_scanned=30000 rows_selected=10000]",
		"  merge <dur> [strata=7 workers=1]",
		"  estimate <dur> [strata=7 workers=1]",
	}, "\n")
	if got := scrubTrace(res2.Explain); got != wantPartial {
		t.Errorf("second EXPLAIN ANALYZE trace:\n%s\nwant:\n%s", got, wantPartial)
	}

	// The typed trace mirrors the rendered one.
	if res2.Trace == nil {
		t.Fatal("Result.Trace is nil under EXPLAIN ANALYZE")
	}
	var names []string
	for _, c := range res2.Trace.Root.Children {
		names = append(names, c.Name)
	}
	want := []string{"parse", "plan", "admission", "store lookup", "Δ-sample", "merge", "estimate"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("typed trace children = %v, want %v", names, want)
	}
}

// TestExplainPlanOnly asserts plain EXPLAIN describes the plan without
// executing anything (no rows, no scan, no cached sample).
func TestExplainPlanOnly(t *testing.T) {
	db := Open(Config{Workers: 1, DefaultK: 128, Seed: 2})
	if err := db.LoadSSB(5_000, 1); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`EXPLAIN SELECT lo_quantity, SUM(lo_revenue) FROM lineorder
		WHERE lo_intkey BETWEEN 0 AND 1000 GROUP BY lo_quantity APPROX`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain == "" {
		t.Fatal("EXPLAIN returned no plan text")
	}
	if len(res.Rows) != 0 {
		t.Fatalf("EXPLAIN executed the query: %d rows", len(res.Rows))
	}
	if got := db.SampleStoreStats().Samples; got != 0 {
		t.Fatalf("EXPLAIN built a sample: %d cached", got)
	}
}

// TestSetTracingAttachesTraces asserts \trace on semantics: SetTracing
// attaches a typed trace to every result but leaves Explain empty.
func TestSetTracingAttachesTraces(t *testing.T) {
	db := Open(Config{Workers: 1, DefaultK: 128, Seed: 2})
	if err := db.LoadSSB(5_000, 1); err != nil {
		t.Fatal(err)
	}
	q := `SELECT lo_quantity, COUNT(*) FROM lineorder GROUP BY lo_quantity APPROX`
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("trace attached while tracing is off")
	}
	db.SetTracing(true)
	res, err = db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Explain != "" {
		t.Fatalf("tracing on: Trace=%v Explain=%q", res.Trace, res.Explain)
	}
	if res.Trace.Root.Name != "query" || res.Trace.Render() == "" {
		t.Fatalf("unexpected trace root %q", res.Trace.Root.Name)
	}
	db.SetTracing(false)
	res, err = db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("trace still attached after SetTracing(false)")
	}
}
