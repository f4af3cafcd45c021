package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metricDef is one metric as BENCHMARK.json names it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics have none.
	Bound float64 `json:"bound"`
}

// catalogue is BENCHMARK.json at the root of the tree: the one place that
// names the workloads and the metrics with their units and bounds. This
// program measures what it names and refuses to report when the two
// disagree. Which end-to-end metric each per-layer metric should move, and
// on which workload, is in README.md: BENCHMARK.json has no key for it.
type catalogue struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// cat is filled once at start-up, by main or TestMain.
var cat catalogue

func loadCatalogue(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("the benchmark's definition: %w (run from the root of the tree, or pass -spec)", err)
	}
	if err := json.Unmarshal(raw, &cat); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var named []string
	for _, w := range cat.Workloads {
		named = append(named, w.Name)
	}
	if !slices.Equal(named, workloadNames()) {
		return fmt.Errorf("%s names workloads %v; this program runs %v", path, named, workloadNames())
	}
	return nil
}

// checkNames reports a metric that is named and not measured, or measured
// and not named.
func checkNames(defs []metricDef, values map[string]float64) error {
	for _, d := range defs {
		if _, ok := values[d.Name]; !ok {
			return fmt.Errorf("BENCHMARK.json names %s, which this program does not measure", d.Name)
		}
	}
	if len(values) != len(defs) {
		for name := range values {
			if !slices.ContainsFunc(defs, func(d metricDef) bool { return d.Name == name }) {
				return fmt.Errorf("this program measures %s, which BENCHMARK.json does not name", name)
			}
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile is the nearest-rank percentile of xs (zero for no samples).
func percentile[T cmp.Ordered](xs []T, q float64) T {
	if len(xs) == 0 {
		var zero T
		return zero
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[int(q*float64(len(s)-1))]
}

// median is the middle value of xs, or the mean of the middle two.
func median[T ~int64 | ~float64](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's high-water resident set from the kernel.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// shapeBalanced is the percentile of op latency taken per shape and averaged
// over shapes (see op.shape).
func shapeBalanced(ps *pass, q float64) time.Duration {
	byShape := map[int][]time.Duration{}
	for i, d := range ps.opLat {
		byShape[ps.opShape[i]] = append(byShape[ps.opShape[i]], d)
	}
	if len(byShape) == 0 {
		return 0
	}
	var sum time.Duration
	for _, ds := range byShape {
		sum += percentile(ds, q)
	}
	return sum / time.Duration(len(byShape))
}

// endToEndOf computes the end-to-end metrics of an untraced pass.
func endToEndOf(ps *pass, setup time.Duration) map[string]float64 {
	return map[string]float64{
		"setup_s":      setup.Seconds(),
		"ops_per_s":    ps.opsPerS,
		"op_p50_ms":    ms(shapeBalanced(ps, 0.5)),
		"op_p90_ms":    ms(shapeBalanced(ps, 0.9)),
		"live_heap_mb": float64(ps.liveHeap) / 1e6,
	}
}

// perLayerOf computes the per-layer metrics of an untraced pass from the
// calls it made, the breakdown those calls returned and the deltas of the
// program's public snapshots. The phases only the program's own trace
// separates come from rec, the recorder of the traced pass (nil when there
// was none); extra carries the numbers measured outside any pass.
func perLayerOf(p *plan, e *env, ps *pass, rec *recorder, v *verdict, extra map[string]float64) map[string]float64 {
	m := map[string]float64{}
	for k, x := range extra {
		m[k] = x
	}
	ops := float64(ps.laps * len(ps.opLat))
	m["bench.timed_ops_n"] = ops
	m["bench.fail_ratio"] = ratio(float64(len(ps.failures)+len(v.failures)), ops+float64(v.checks))
	m["approx.rel_err_p90"] = v.relErrP90()
	m["approx.ci95_coverage"] = v.coverage()
	m["approx.sampled_estimates_n"] = float64(v.sampledN)
	m["approx.exact_by_sample_n"] = float64(v.exactBySampleN)
	m["approx.low_support_n"] = float64(v.lowSupportN)

	var frontend, scan, process, merge, appends, wire, decode []time.Duration
	var resultRows, respBytes []int
	byMode := map[string][]time.Duration{}
	var rowsScanned, rowsSelected, scanLevelSelected, scanLevelWidth, appendedRows int64
	var scanTime, appendTime time.Duration
	for _, c := range ps.calls {
		switch c.kind {
		case callAppend:
			appends = append(appends, c.lat)
			appendedRows += int64(c.rows)
			appendTime += c.lat
			continue
		case callRequest:
			wire = append(wire, c.wire)
			decode = append(decode, c.decode)
			respBytes = append(respBytes, c.bytes)
			frontend = append(frontend, max(0, c.total-c.scan-c.process-c.merge))
		default:
			// Segment builds that ran in parallel report their scan and
			// process times summed, which can exceed the call's wall time.
			frontend = append(frontend, max(0, c.lat-c.scan-c.process-c.merge))
		}
		resultRows = append(resultRows, c.rows)
		byMode[c.mode] = append(byMode[c.mode], c.total)
		rowsScanned += c.rowsScanned
		rowsSelected += c.rowsSelected
		if c.rowsScanned > 0 {
			scan, process = append(scan, c.scan), append(process, c.process)
			scanTime += c.scan
		}
		if c.merge > 0 {
			merge = append(merge, c.merge)
		}
		if c.width > 0 {
			scanLevelSelected += c.rowsSelected
			scanLevelWidth += c.width
		}
	}
	m["laqy.frontend_self_us_p50"] = us(percentile(frontend, 0.5))
	m["laqy.result_rows_p50"] = float64(percentile(resultRows, 0.5))
	m["laqy.allocs_per_op"] = ratio(float64(ps.mallocs), ops)
	m["laqy.alloc_kb_per_op"] = ratio(float64(ps.allocBytes)/1024, ops)
	m["laqy.gc_pause_ms_total"] = float64(ps.gcPauseNS) / 1e6
	m["laqy.append_ms_p50"] = ms(percentile(appends, 0.5))
	m["laqy.append_rows_per_s"] = ratio(float64(appendedRows), appendTime.Seconds())
	m["sql.distinct_texts_n"] = float64(len(p.texts()))

	c := ps.counters
	m["governor.admitted_n"] = float64(c["laqy_governor_admitted_total"])
	m["governor.rejected_n"] = float64(c["laqy_governor_rejected_total"])
	m["governor.queue_timeouts_n"] = float64(c["laqy_governor_queue_timeouts_total"])
	m["governor.degradations_n"] = 0
	for name, n := range c {
		if strings.HasPrefix(name, "laqy_governor_degrade_") {
			m["governor.degradations_n"] += float64(n)
		}
	}

	full, partial, miss := float64(c["laqy_store_lookup_full_total"]), float64(c["laqy_store_lookup_partial_total"]), float64(c["laqy_store_lookup_miss_total"])
	m["store.full_reuses_n"], m["store.partial_reuses_n"], m["store.misses_n"] = full, partial, miss
	m["store.evictions_n"] = float64(c["laqy_store_evictions_total"])
	m["store.reuse_ratio"] = ratio(full+partial, full+partial+miss)
	m["store.samples_end"] = float64(ps.store.Samples)
	m["store.mb_end"] = float64(ps.store.Bytes) / 1e6

	m["core.online_ms_p50"] = ms(percentile(byMode["online"], 0.5))
	m["core.partial_ms_p50"] = ms(percentile(byMode["partial"], 0.5))
	m["core.offline_ms_p50"] = ms(percentile(byMode["offline"], 0.5))
	online, part, offline := float64(len(byMode["online"])), float64(len(byMode["partial"])), float64(len(byMode["offline"]))
	m["core.online_n"], m["core.partial_n"], m["core.offline_n"] = online, part, offline
	m["core.exact_fallback_n"] = float64(len(byMode["exact_fallback"]))
	m["core.offline_share"] = ratio(offline, online+part+offline)
	m["core.effective_selectivity"] = ratio(float64(scanLevelSelected), float64(scanLevelWidth))
	m["core.delta_builds_n"] = float64(c["laqy_sampler_delta_builds_total"])
	m["core.merges_n"] = float64(c["laqy_sampler_merges_total"])
	m["core.store_updates_n"] = float64(c["laqy_store_updates_total"])

	m["engine.scan_ms_p50"] = ms(percentile(scan, 0.5))
	m["engine.process_ms_p50"] = ms(percentile(process, 0.5))
	m["engine.merge_ms_p50"] = ms(percentile(merge, 0.5))
	m["engine.rows_scanned"] = float64(rowsScanned)
	m["engine.rows_selected"] = float64(rowsSelected)
	m["engine.scan_rows_per_s"] = ratio(float64(rowsScanned), scanTime.Seconds())
	morsels := float64(c["laqy_engine_morsels_total"])
	m["engine.morsels_n"] = morsels
	m["engine.morsels_pruned_n"] = float64(c["laqy_engine_morsels_pruned_total"])
	m["engine.morsels_full_n"] = float64(c["laqy_engine_morsels_fullpath_total"])
	m["engine.morsels_encoded_n"] = float64(c["laqy_engine_morsels_encoded_total"])
	m["engine.morsels_fused_n"] = float64(c["laqy_engine_morsels_fused_total"])
	m["engine.prune_ratio"] = ratio(m["engine.morsels_pruned_n"], morsels)
	m["engine.fused_ratio"] = ratio(m["engine.morsels_fused_n"], morsels)
	m["engine.segment_builds_n"] = float64(c["laqy_engine_segment_builds_total"])
	m["engine.segments_dropped_n"] = float64(c["laqy_engine_segments_dropped_total"])

	m["storage.load_s"] = e.loadDur.Seconds()
	m["storage.encode_build_ms"] = ms(e.encodeDur)
	m["storage.physical_mb"] = float64(ps.storageEnd.PhysicalBytes) / 1e6
	m["storage.logical_mb"] = float64(ps.storageEnd.LogicalBytes) / 1e6
	m["storage.enc_ratio"] = ratio(float64(ps.storageEnd.PhysicalBytes), float64(ps.storageEnd.LogicalBytes))
	m["storage.physical_growth_mb"] = float64(ps.storageEnd.PhysicalBytes-e.storage.PhysicalBytes) / 1e6

	m["server.wire_overhead_us_p50"] = us(percentile(wire, 0.5))
	m["server.response_kb_p50"] = float64(percentile(respBytes, 0.5)) / 1024
	m["server.client_decode_us_p50"] = us(percentile(decode, 0.5))
	sc := ps.srvCounters
	m["server.requests_n"] = float64(sc["laqy_server_requests_total"])
	m["server.resp_2xx_n"] = float64(sc["laqy_server_responses_2xx_total"])
	m["server.resp_4xx_n"] = float64(sc["laqy_server_responses_4xx_total"])
	m["server.resp_5xx_n"] = float64(sc["laqy_server_responses_5xx_total"])
	m["server.degraded_206_n"] = float64(sc["laqy_server_degraded_responses_total"])

	m["sql.plan_us_p50"] = us(percentile(rec.durations("sql.plan"), 0.5))
	m["governor.admission_us_p50"] = us(percentile(rec.durations("governor.admission"), 0.5))
	m["store.lookup_us_p50"] = us(percentile(rec.durations("store.lookup"), 0.5))
	m["core.tighten_ms_p50"] = ms(percentile(rec.durations("core.tighten"), 0.5))

	for k, x := range m {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			m[k] = 0
		}
	}
	return m
}
