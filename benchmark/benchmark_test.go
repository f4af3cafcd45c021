package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// smokeOps keeps a fixed-work run of each workload under a second at
// -rows 20000 while still crossing a session boundary, a full exact-ssb
// round and a segment seal.
var smokeOps = map[string]int{
	"explore-lazy": 130, "explore-online": 40, "dashboard-hot": 80, "exact-ssb": 2 * exactShapesN, "ingest-maintain": 30,
}

// pinnedSHA is ops_sha256 at -rows 20000 -seed 1: the op lists are part of
// the benchmark's definition, and a change to them is a change of benchmark.
var pinnedSHA = map[string]string{
	"explore-lazy":    "8ffad5c65030aad39ffe3cff8d25ae8ff93b76873bffa3f82d2cdf6e1c433966",
	"explore-online":  "ac20e67440ee74ec58e6c0bf148d05a4e5f500c3e694a96583d09dabe7526f13",
	"dashboard-hot":   "47b1ce018a1c2f9807d87bd6878621bbf5e91134e7e9251f4cf897564ad89d2a",
	"exact-ssb":       "34f744b1bb81870be5cff7a6bdf7b0ed087f9473db6ac5bfe0740bdfc359d69c",
	"ingest-maintain": "46812434175ef5b5b509cfc6c2473fde3f74819b5bd8f903bae71dacdb8d3ac7",
}

func TestMain(m *testing.M) {
	if err := loadCatalogue("../BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

func smoke(t *testing.T, workload string, seed uint64) *result {
	t.Helper()
	res, err := runWorkload(options{workload: workload, seed: seed, seconds: 1, trace: 1, rows: 20000, ops: smokeOps[workload]})
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	return res
}

func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			res := smoke(t, w.name, 1)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d: %v", res.Correct, res.Failed, res.Failures)
			}
			if res.PerLayer["bench.fail_ratio"] != 0 {
				t.Errorf("fail_ratio = %v", res.PerLayer["bench.fail_ratio"])
			}
			// runWorkload has already refused a metric that BENCHMARK.json
			// names and the run lacks, or the reverse.
			for _, d := range cat.EndToEnd {
				if x := res.EndToEnd[d.Name]; x <= 0 || math.IsInf(x, 0) || math.IsNaN(x) {
					t.Errorf("end-to-end %s = %v; must be positive and finite", d.Name, x)
				}
			}
			for _, d := range cat.PerLayer {
				if x := res.PerLayer[d.Name]; math.IsInf(x, 0) || math.IsNaN(x) {
					t.Errorf("per-layer %s = %v", d.Name, x)
				}
			}
			if len(res.Layers) == 0 {
				t.Error("traced run produced no layer table")
			}
			if res.OpsSHA256 != pinnedSHA[w.name] {
				t.Errorf("ops_sha256 = %s, pinned %s", res.OpsSHA256, pinnedSHA[w.name])
			}

			other := smoke(t, w.name, 2)
			if other.OpsSHA256 == res.OpsSHA256 {
				t.Error("seed 2 generated the same ops as seed 1")
			}
			if w.name == "dashboard-hot" {
				if res.PerLayer["engine.rows_scanned"] != 0 || res.PerLayer["core.offline_share"] != 1 {
					t.Errorf("dashboard-hot scanned %v rows, offline share %v", res.PerLayer["engine.rows_scanned"], res.PerLayer["core.offline_share"])
				}
				return // two clients: the interleaving, and so some counts, may differ between runs
			}
			again := smoke(t, w.name, 1)
			for name, x := range res.PerLayer {
				exact := strings.HasSuffix(name, "_n") && (strings.HasPrefix(name, "store.") || strings.HasPrefix(name, "core.")) ||
					name == "engine.rows_scanned" || name == "engine.rows_selected"
				if exact && again.PerLayer[name] != x {
					t.Errorf("%s = %v then %v; fixed work must repeat exactly", name, x, again.PerLayer[name])
				}
			}
		})
	}
}

// A time-bounded run repeats whole laps, and ingest-maintain loads its table
// afresh for each: every lap must append the same batches to the same table,
// or the oracle's copy and the program's part ways.
func TestTimeBoundedLaps(t *testing.T) {
	for _, w := range []string{"explore-lazy", "ingest-maintain"} {
		res, err := runWorkload(options{workload: w, seed: 1, seconds: 0.05, rows: 20000})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		info, _ := findWorkload(w)
		laps, _ := res.Env["laps"].(int)
		if !res.Correct || laps < minLaps || res.PerLayer["bench.timed_ops_n"] != float64(laps*info.lapOps) {
			t.Errorf("%s: correct=%v laps=%d timed ops=%v (lap of %d): %v", w, res.Correct, laps, res.PerLayer["bench.timed_ops_n"], info.lapOps, res.Failures)
		}
	}
}

// The workloads must differ where they claim to: reuse on one side of
// explore and none on the other, no sampler work under exact-ssb, store
// maintenance under ingest.
func TestWorkloadsStressDifferentLayers(t *testing.T) {
	lazy, online := smoke(t, "explore-lazy", 1).PerLayer, smoke(t, "explore-online", 1).PerLayer
	if lazy["store.reuse_ratio"] < 0.5 || online["store.reuse_ratio"] != 0 {
		t.Errorf("reuse ratio lazy %v, online %v", lazy["store.reuse_ratio"], online["store.reuse_ratio"])
	}
	if online["core.effective_selectivity"] != 1 || lazy["core.effective_selectivity"] >= 1 {
		t.Errorf("effective selectivity lazy %v, online %v", lazy["core.effective_selectivity"], online["core.effective_selectivity"])
	}
	exact := smoke(t, "exact-ssb", 1).PerLayer
	if exact["core.online_n"]+exact["core.partial_n"]+exact["core.offline_n"]+exact["store.misses_n"] != 0 {
		t.Errorf("exact-ssb reached the sampler: %v", exact)
	}
	ingest := smoke(t, "ingest-maintain", 1).PerLayer
	// At smoke scale no stratum outgrows its reservoir, so the estimates are
	// checked as exact-by-sample; real sampling needs a full-scale table,
	// where claimFailures insists on it.
	if ingest["core.store_updates_n"] == 0 || ingest["laqy.append_ms_p50"] == 0 || ingest["approx.exact_by_sample_n"] == 0 {
		t.Errorf("ingest-maintain: store updates %v, append p50 %v, checked estimates %v",
			ingest["core.store_updates_n"], ingest["laqy.append_ms_p50"], ingest["approx.exact_by_sample_n"])
	}
}

// A full-scale run must do what its workload is in the benchmark for; the
// smoke scale cannot and is let off.
func TestClaimFailures(t *testing.T) {
	moved := map[string]int64{"laqy_engine_morsels_pruned_total": 5, "laqy_engine_morsels_fullpath_total": 3, "laqy_engine_morsels_fused_total": 3}
	for _, c := range []struct {
		workload string
		rows     int
		v        verdict
		counters map[string]int64
		want     int
	}{
		{"explore-lazy", fullScaleRows, verdict{sampledN: gateMinSampled - 1, exactBySampleN: 100000}, nil, 1},
		{"explore-lazy", fullScaleRows, verdict{sampledN: gateMinSampled}, nil, 0},
		{"explore-lazy", 20000, verdict{}, nil, 0},
		{"exact-ssb", fullScaleRows, verdict{}, map[string]int64{"laqy_engine_morsels_pruned_total": 5}, 2},
		{"exact-ssb", fullScaleRows, verdict{}, moved, 0},
		{"exact-ssb", 20000, verdict{}, nil, 0},
	} {
		info, _ := findWorkload(c.workload)
		if got := c.v.claimFailures(&plan{info: info, rows: c.rows}, c.counters); len(got) != c.want {
			t.Errorf("%s at %d rows: %d failures %v, want %d", c.workload, c.rows, len(got), got, c.want)
		}
	}
}

func TestCompareApprox(t *testing.T) {
	truth := answer{"a": {{value: 100}}, "b": {{value: 200}}, "c": {{value: 300}}}
	var v verdict
	v.compareApprox("q", true, answer{
		"a": {{value: 100, support: 12}},            // whole stratum held: a claim, and true
		"b": {{value: 950, support: 1}},             // one tuple: no variance, no claim
		"c": {{value: 310, stdErr: 8, support: 32}}, // sampled
	}, truth)
	if len(v.failures) != 0 || v.exactBySampleN != 1 || v.lowSupportN != 1 || v.sampledN != 1 || v.coveredN != 1 {
		t.Errorf("verdict %+v", v)
	}
	// A wrong value with no error: a failure from a fresh sample or on many
	// tuples, low support from a reused sample on few.
	for _, c := range []struct {
		fresh    bool
		support  int
		failures int
	}{{true, 12, 1}, {false, 12, 0}, {false, minSupport, 1}} {
		v = verdict{}
		v.compareApprox("q", c.fresh, answer{"a": {{value: 101, support: c.support}}}, truth)
		if len(v.failures) != c.failures || v.lowSupportN != 1-c.failures {
			t.Errorf("fresh=%v support=%d: %+v", c.fresh, c.support, v)
		}
	}
}

func TestOracle(t *testing.T) {
	orc, err := newOracle(5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	count := agg{count: true}
	got, err := orc.eval([]*spec{
		{aggs: []agg{count, sum("lo_revenue")}},
		{groupBy: []string{"d_year", "c_region"}, aggs: []agg{count, sum("lo_revenue")}},
		{conds: []cond{intRange("lo_intkey", 100, 199)}, aggs: []agg{count}},
		{conds: []cond{strEq("s_region", "ASIA"), strIn("p_mfgr", "MFGR#1", "MFGR#2")}, aggs: []agg{count}},
		{conds: []cond{strEq("s_region", "ASIA")}, aggs: []agg{count}},
	})
	if err != nil {
		t.Fatal(err)
	}
	all := got[0][""]
	if all[0].value != 5000 {
		t.Errorf("COUNT(*) = %v, want 5000", all[0].value)
	}
	var n, revenue float64
	for _, g := range got[1] {
		n, revenue = n+g[0].value, revenue+g[1].value
	}
	if n != 5000 || revenue != all[1].value || len(got[1]) != 7*5 {
		t.Errorf("groups sum to count %v revenue %v over %d groups; want 5000, %v, 35", n, revenue, len(got[1]), all[1].value)
	}
	if c := got[2][""][0].value; c != 100 {
		t.Errorf("100 unique keys selected %v rows", c)
	}
	// Two of five manufacturers, cycled evenly over parts drawn uniformly.
	if part, whole := got[3][""][0].value, got[4][""][0].value; part <= 0.3*whole || part >= 0.5*whole {
		t.Errorf("MFGR#1-2 are %v of %v ASIA rows", part, whole)
	}

	orc.appendBatch(batch{
		"lo_intkey": {5000}, "lo_orderdate": {19920101}, "lo_suppkey": {1}, "lo_partkey": {1}, "lo_custkey": {1},
		"lo_quantity": {1}, "lo_discount": {0}, "lo_tax": {0}, "lo_extendedprice": {100}, "lo_revenue": {100}, "lo_supplycost": {60},
	})
	got, err = orc.eval([]*spec{{aggs: []agg{count, sum("lo_revenue")}}})
	if err != nil {
		t.Fatal(err)
	}
	if g := got[0][""]; g[0].value != 5001 || g[1].value != all[1].value+100 {
		t.Errorf("after append: count %v revenue %v", g[0].value, g[1].value)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 37, 7, 11, 16, 22, 29})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{10, 10.1, 9.9, 10.05, 9.95}
	scale := func(k float64) []float64 {
		out := make([]float64, len(steady))
		for i, x := range steady {
			out[i] = k * x
		}
		return out
	}
	for _, c := range []struct {
		d      metricDef
		change []float64
		want   string
	}{
		{lower, scale(1.05), "same"},
		{lower, scale(1.2), "worse"},
		{lower, scale(0.8), "better"},
		{higher, scale(1.2), "better"},
		{higher, scale(0.8), "worse"},
		{lower, []float64{8, 10, 12, 14, 9}, "unresolved"},
	} {
		if _, _, _, got := judge(c.d, steady, c.change); got != c.want {
			t.Errorf("%s x %v: %s, want %s", c.d.Name, c.change[0]/steady[0], got, c.want)
		}
	}
}

func TestCompareReport(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		path := dir + "/" + name
		for i := 0; i < 3; i++ {
			res := &result{Workload: "exact-ssb", EndToEnd: map[string]float64{"op_p50_ms": p50 + float64(i)/100}, PerLayer: map[string]float64{"engine.scan_ms_p50": p50 / 2}}
			if err := appendRun(path, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	var out bytes.Buffer
	if err := compareFiles(&out, write("base.json", 20), write("new.json", 30)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"exact-ssb", "op_p50_ms", "worse", "engine.scan_ms_p50", "1.500"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}
