package main

import (
	"fmt"
	"math"

	"laqy"
)

// verdict collects the outcome of the correctness gate.
type verdict struct {
	checks   int
	failures []string

	// Accuracy of estimates that were really sampled (standard error > 0)
	// on groups with support >= minSupport.
	relErrs  []float64
	sampledN int
	coveredN int
	// exactBySampleN counts estimates reported with zero standard error:
	// the reservoir held the whole stratum, so they must equal the truth.
	exactBySampleN int
	// lowSupportN counts sampled estimates left unscored: fewer than
	// minSupport tuples, as a tightened sample often has.
	lowSupportN int
}

const (
	minSupport = 30
	// exactTol absorbs float summation order; the sums are of integers well
	// below 2^53.
	exactTol = 1e-9
)

func (v *verdict) failf(format string, args ...any) {
	v.failures = append(v.failures, fmt.Sprintf(format, args...))
}

func closeEnough(got, want float64) bool {
	return math.Abs(got-want) <= exactTol*math.Max(1, math.Abs(want))
}

// compareExact checks that two exact answers agree group for group.
func (v *verdict) compareExact(label string, got, want answer) {
	v.checks++
	if len(got) != len(want) {
		v.failf("%s: %d groups, oracle has %d", label, len(got), len(want))
		return
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok || len(g) != len(w) {
			v.failf("%s: group %q missing or misshapen", label, key)
			return
		}
		for i := range w {
			if !closeEnough(g[i].value, w[i].value) {
				v.failf("%s: group %q agg %d = %v, oracle has %v", label, key, i, g[i].value, w[i].value)
				return
			}
		}
	}
}

// compareApprox scores an approximate answer against the exact one. An
// estimate with zero standard error on two or more tuples says that its
// reservoir held the whole stratum (the "k >= |selection|" case): it must
// then equal the truth. That is held against every estimate of a sample built
// for this very query (fresh), which knows the size of its strata, and
// against any estimate on minSupport tuples or more. A reused sample only
// estimates the sizes of the strata it was tightened to, and on a few tuples
// the estimate can come out at the tuple count, so there a wrong value with
// no error is an estimate on low support, left unscored like the others. A
// lone tuple has no variance to estimate and is never taken for a claim.
// The estimates that remain feed rel_err and coverage.
func (v *verdict) compareApprox(label string, fresh bool, got, truth answer) {
	v.checks++
	allExact := true
	for key, ests := range got {
		want, ok := truth[key]
		if !ok || len(want) != len(ests) {
			v.failf("%s: group %q is not in the exact answer", label, key)
			return
		}
		for i, e := range ests {
			if e.stdErr == 0 && e.support >= 2 {
				if closeEnough(e.value, want[i].value) {
					v.exactBySampleN++
					continue
				}
				if fresh || e.support >= minSupport {
					v.failf("%s: group %q agg %d = %v with no error on %d tuples, exact is %v", label, key, i, e.value, e.support, want[i].value)
					return
				}
			}
			allExact = false
			if e.support < minSupport || want[i].value == 0 {
				v.lowSupportN++
				continue
			}
			v.sampledN++
			v.relErrs = append(v.relErrs, math.Abs(e.value-want[i].value)/math.Abs(want[i].value))
			lo, hi, err := laqy.AggValue{Value: e.value, StdErr: e.stdErr}.ConfidenceInterval(0.95)
			if err != nil {
				v.failf("%s: confidence interval: %v", label, err)
				return
			}
			if lo <= want[i].value && want[i].value <= hi {
				v.coveredN++
			}
		}
	}
	// A sample that holds every qualifying row cannot lose a group.
	if allExact && len(got) != len(truth) {
		v.failf("%s: %d groups with no error, exact has %d", label, len(got), len(truth))
	}
}

// verify runs the correctness gate on the answers a pass kept. Exact answers
// are checked against the oracle; approximate ones against the program's
// exact answer to the same query, which is itself checked against the oracle.
func verify(p *plan, e *env, seed uint64, ps *pass) (*verdict, error) {
	v := &verdict{}
	orc, err := newOracle(p.baseRows, seed)
	if err != nil {
		return nil, err
	}
	// The table holds every batch its last lap appended.
	for _, b := range p.batches[:ps.appended] {
		orc.appendBatch(b)
	}

	var specs []*spec
	var answers []answer
	var labels []string
	for _, c := range ps.checks {
		if !c.spec.approx {
			specs, answers, labels = append(specs, c.spec), append(answers, c.got), append(labels, c.label)
			continue
		}
		truth := c.truth
		if truth == nil {
			res, err := e.db.Query(c.spec.exact().SQL())
			if err != nil {
				return nil, fmt.Errorf("truth of %s: %w", c.label, err)
			}
			truth = answerOf(res)
			specs, answers, labels = append(specs, c.spec.exact()), append(answers, truth), append(labels, c.label+" (truth)")
		}
		v.compareApprox(c.label, c.fresh, c.got, truth)
	}
	if p.info.name == "ingest-maintain" {
		// In-run truths were taken on tables that no longer exist; check the
		// panel's exact answers on the final table instead.
		for j, o := range p.panel {
			res, err := e.db.Query(o.spec.exact().SQL())
			if err != nil {
				return nil, fmt.Errorf("final panel %d: %w", j, err)
			}
			specs, answers, labels = append(specs, o.spec.exact()), append(answers, answerOf(res)), append(labels, fmt.Sprintf("final panel %d", j))
		}
	}
	want, err := orc.eval(specs)
	if err != nil {
		return nil, err
	}
	for i := range specs {
		v.compareExact(labels[i], answers[i], want[i])
	}
	return v, nil
}

func (v *verdict) relErrP90() float64 { return percentile(v.relErrs, 0.9) }

// coverage is the share of sampled estimates whose 95 % interval holds the
// truth; 1 when nothing was sampled (an exact answer covers itself).
func (v *verdict) coverage() float64 {
	if v.sampledN == 0 {
		return 1
	}
	return float64(v.coveredN) / float64(v.sampledN)
}

// The accuracy gate: estimates this far off are wrong answers, not noise.
// Over 200 independent estimates a true 95 % coverage has a standard error
// of 0.015, so 0.85 is more than six of them away. The error of a sum over k
// sampled tuples falls with the root of k; at exploreK = 32 its 90th
// percentile is about 0.17 (README, "This commit's numbers"), so 0.30 is an
// estimator that has lost more than two thirds of its sample.
const (
	gateMinSampled  = 200
	gateMinCoverage = 0.85
	gateMaxRelErr   = 0.30
	// fullScaleRows is the table size from which a workload must do what it
	// is in the benchmark for (see claimFailures). Below it, as in the tests'
	// -rows 20000, no stratum outgrows a reservoir and the table is a
	// single morsel.
	fullScaleRows = 1_000_000
)

func (v *verdict) accuracyFailure() string {
	if v.sampledN < gateMinSampled {
		return ""
	}
	if c := v.coverage(); c < gateMinCoverage {
		return fmt.Sprintf("95%% intervals cover the truth in %.3f of %d estimates, below %.2f", c, v.sampledN, gateMinCoverage)
	}
	if e := v.relErrP90(); e > gateMaxRelErr {
		return fmt.Sprintf("p90 relative error %.4f over %d estimates, above %.2f", e, v.sampledN, gateMaxRelErr)
	}
	return ""
}

// claimFailures holds a full-scale run to its workload's reason for being in
// the benchmark: an approximate workload whose reservoirs never overflow
// measures copying, not sampling, and its accuracy numbers are the constants
// 0 and 1; exact-ssb on a table no zone map can decide never runs the skip,
// full-morsel and fused paths. counters are the pass's db.Metrics() deltas.
func (v *verdict) claimFailures(p *plan, counters map[string]int64) []string {
	if p.rows < fullScaleRows {
		return nil
	}
	var out []string
	if p.info.name == "exact-ssb" {
		for _, name := range []string{"laqy_engine_morsels_pruned_total", "laqy_engine_morsels_fullpath_total", "laqy_engine_morsels_fused_total"} {
			if counters[name] == 0 {
				out = append(out, name+" did not move: the clustered shapes ran no zone-map or fused path")
			}
		}
	} else if v.sampledN < gateMinSampled {
		out = append(out, fmt.Sprintf("%d estimates came from overflowing reservoirs (%d from whole strata); at least %d are needed to measure accuracy",
			v.sampledN, v.exactBySampleN, gateMinSampled))
	}
	return out
}
