package approx

import (
	"sort"
	"testing"

	"laqy/internal/rng"
	"laqy/internal/sample"
)

// bootstrap is the resampling reference the CLT intervals of FromReservoir
// are checked against: a percentile-bootstrap confidence interval for
// SUM/COUNT/AVG over a reservoir. The reservoir is resampled with
// replacement `replicates` times, the estimator is recomputed on each
// replicate, and the interval is the (α/2, 1−α/2) percentile range of the
// replicates. It makes no normality assumption, which is what makes it an
// oracle for the CLT interval on skewed or low-support data. No product
// code calls it; ROADMAP 1(b) decides whether an estimator like it returns
// for low-support strata.
func bootstrap(r *sample.Reservoir, col int, kind AggKind, replicates int,
	confidence float64, gen *rng.Lehmer64) (lo, hi float64) {

	n := r.Len()
	w := r.Weight()
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = float64(r.Tuple(i)[col])
	}
	stats := make([]float64, replicates)
	for b := 0; b < replicates; b++ {
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += vals[gen.Intn(n)]
		}
		mean := sum / float64(n)
		switch kind {
		case Sum:
			stats[b] = w * mean
		case Count:
			stats[b] = w
		case Avg:
			stats[b] = mean
		}
	}
	sort.Float64s(stats)
	alpha := 1 - confidence
	loIdx := int(alpha / 2 * float64(replicates))
	hiIdx := int((1 - alpha/2) * float64(replicates))
	if hiIdx >= replicates {
		hiIdx = replicates - 1
	}
	return stats[loIdx], stats[hiIdx]
}

func TestBootstrapMatchesCLTOnUniformData(t *testing.T) {
	// For well-behaved (uniform) data with decent support, the percentile
	// bootstrap and the CLT interval should roughly agree.
	r := reservoirOf(500, 1, iota64(0, 100000))
	est := FromReservoir(r, 0, Sum)
	cltLo, cltHi, err := est.ConfidenceInterval(0.95)
	if err != nil {
		t.Fatal(err)
	}

	bootLo, bootHi := bootstrap(r, 0, Sum, 2000, 0.95, newGen(2))
	cltWidth := cltHi - cltLo
	bootWidth := bootHi - bootLo
	if bootWidth < cltWidth*0.7 || bootWidth > cltWidth*1.3 {
		t.Fatalf("bootstrap width %.3g vs CLT width %.3g", bootWidth, cltWidth)
	}
	// Both intervals contain the point estimate.
	if bootLo > est.Value || bootHi < est.Value {
		t.Fatalf("bootstrap interval [%.3g, %.3g] excludes the estimate %.3g", bootLo, bootHi, est.Value)
	}
}

func TestBootstrapCoverage(t *testing.T) {
	// 95% bootstrap intervals should contain the true sum in roughly 95%
	// of independent trials.
	const n, k, trials = 20000, 300, 120
	trueSum := float64(n) * float64(n-1) / 2
	hits := 0
	vals := iota64(0, n)
	for trial := 0; trial < trials; trial++ {
		r := reservoirOf(k, uint64(trial+50), vals)
		lo, hi := bootstrap(r, 0, Sum, 400, 0.95, newGen(uint64(trial+5000)))
		if lo <= trueSum && trueSum <= hi {
			hits++
		}
	}
	rate := float64(hits) / trials
	if rate < 0.85 {
		t.Fatalf("bootstrap 95%% CI covered the truth in %.1f%% of trials", rate*100)
	}
}

func TestBootstrapSkewedData(t *testing.T) {
	// Heavily skewed values (a few huge outliers): the bootstrap interval
	// is asymmetric around the estimate, which the CLT interval cannot be.
	vals := make([]int64, 5000)
	for v := range vals {
		vals[v] = 1
		if v%100 == 0 {
			vals[v] = 10_000
		}
	}
	r := reservoirOf(5000, 7, vals)
	est := FromReservoir(r, 0, Avg)
	lo, hi := bootstrap(r, 0, Avg, 2000, 0.95, newGen(8))
	if lo > est.Value || hi < est.Value {
		t.Fatalf("interval [%v, %v] excludes %v", lo, hi, est.Value)
	}
	if hi <= lo {
		t.Fatal("degenerate interval")
	}
}

func TestBootstrapCountIsExact(t *testing.T) {
	r := reservoirOf(10, 9, iota64(0, 1000))
	lo, hi := bootstrap(r, 0, Count, 100, 0.95, newGen(10))
	if lo != 1000 || hi != 1000 {
		t.Fatalf("COUNT bootstrap = [%v, %v], want exact weight", lo, hi)
	}
}
