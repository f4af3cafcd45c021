// Package approx turns LAQy's reservoir and stratified samples into
// approximate query answers with error bounds.
//
// A reservoir {R, w} of n tuples represents a subpopulation of w tuples, so
// aggregates scale by the weight: SUM ≈ w·mean(R), COUNT ≈ w, AVG ≈
// mean(R). Standard errors follow the CLT with a finite-population
// correction, matching the bounded-error contracts of the sampling AQP
// literature the paper builds on (BlinkDB [2], Quickr [19]). Group-by
// queries estimate each group from its stratum, which is exactly why the
// stratification key must align with the query's QCS.
package approx

import (
	"fmt"
	"math"

	"laqy/internal/expr"
	"laqy/internal/sample"
)

// AggKind enumerates the supported aggregation functions.
type AggKind int

const (
	// Sum estimates SUM(col) as weight · sample mean.
	Sum AggKind = iota
	// Count estimates COUNT(*) as the reservoir weight.
	Count
	// Avg estimates AVG(col) as the sample mean.
	Avg
	// Min reports the sample minimum (a biased upper bound on the true
	// minimum; reported without a confidence interval).
	Min
	// Max reports the sample maximum (a biased lower bound on the true
	// maximum; reported without a confidence interval).
	Max
)

// String implements fmt.Stringer.
func (k AggKind) String() string {
	switch k {
	case Sum:
		return "SUM"
	case Count:
		return "COUNT"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	default:
		return fmt.Sprintf("AGG(%d)", int(k))
	}
}

// Estimate is an approximate aggregate with its uncertainty.
type Estimate struct {
	// Value is the point estimate.
	Value float64
	// StdErr is the estimated standard error of Value; zero when the
	// estimate is exact (e.g. COUNT from an unfiltered weight, or a
	// reservoir that holds its whole subpopulation).
	StdErr float64
	// Support is the number of sampled tuples backing the estimate.
	Support int
	// Weight is the represented subpopulation size.
	Weight float64
}

// ConfidenceInterval returns the (lo, hi) interval at the given confidence
// level, e.g. 0.95. For exact estimates the interval collapses to the
// value. The confidence level is caller input (it reaches this method from
// the SQL CONFIDENCE clause and from the public API), so an out-of-range
// level is an error, not a panic.
func (e Estimate) ConfidenceInterval(confidence float64) (lo, hi float64, err error) {
	if confidence <= 0 || confidence >= 1 {
		return 0, 0, fmt.Errorf("approx: confidence %v outside (0,1)", confidence)
	}
	z := zQuantile(0.5 + confidence/2)
	return e.Value - z*e.StdErr, e.Value + z*e.StdErr, nil
}

// RelativeErrorBound returns StdErr·z/|Value| at the given confidence, the
// paper's notion of an approximation guarantee; +Inf when Value is zero
// with nonzero error. Like ConfidenceInterval, an out-of-range confidence
// level is reported as an error.
func (e Estimate) RelativeErrorBound(confidence float64) (float64, error) {
	if confidence <= 0 || confidence >= 1 {
		return 0, fmt.Errorf("approx: confidence %v outside (0,1)", confidence)
	}
	if e.StdErr == 0 {
		return 0, nil
	}
	if e.Value == 0 {
		return math.Inf(1), nil
	}
	z := zQuantile(0.5 + confidence/2)
	return math.Abs(z * e.StdErr / e.Value), nil
}

// Selection is the part of one reservoir an estimate reads: every stored
// tuple, or the tuples a tightening predicate keeps. Selection commutes with
// sampling, so a stored sample wider than the query is never copied narrower
// (§5.2.1): the survivors are selected once per stratum, at the weight
// sample.Reservoir.Select reports, and every aggregate of the query reads
// that one selection. The zero value is ready; its index scratch is reused
// from one stratum to the next.
type Selection struct {
	tuples   []int64 // the reservoir's row-major storage
	width    int
	kept     []int32 // surviving tuple indices; meaningful only when filtered
	filtered bool
	n        int
	weight   float64
}

// Select points s at the tuples of r that keep accepts (nil: all of them) and
// reports whether there are any.
func (s *Selection) Select(r *sample.Reservoir, keep *expr.TupleFilter) bool {
	s.tuples, s.width, s.filtered = r.Tuples(), r.Width(), keep != nil
	s.n, s.weight = r.Len(), r.Weight()
	if s.filtered {
		s.kept, s.weight = r.Select(keep, s.kept[:0])
		s.n = len(s.kept)
	}
	return s.n > 0
}

// Weight returns the subpopulation size the selected tuples represent.
func (s *Selection) Weight() float64 { return s.weight }

// at returns column col of the j-th selected tuple.
func (s *Selection) at(j, col int) int64 {
	if s.filtered {
		j = int(s.kept[j])
	}
	return s.tuples[j*s.width+col]
}

// moments computes the sample mean and unbiased variance of column col
// across the selected tuples.
func (s *Selection) moments(col int) (mean, variance float64) {
	n := s.n
	sum := 0.0
	for j := 0; j < n; j++ {
		sum += float64(s.at(j, col))
	}
	mean = sum / float64(n)
	if n < 2 {
		return mean, 0
	}
	ss := 0.0
	for j := 0; j < n; j++ {
		d := float64(s.at(j, col)) - mean
		ss += d * d
	}
	return mean, ss / float64(n-1)
}

// fpc is the finite-population correction factor (1 - n/w): sampling n of w
// tuples without replacement shrinks the estimator variance, and a
// reservoir holding its whole subpopulation (n == w) is exact.
func fpc(n int, w float64) float64 {
	if w <= 0 {
		return 0
	}
	f := 1 - float64(n)/w
	if f < 0 {
		return 0
	}
	return f
}

// FromReservoir estimates an aggregate of column col (an index into the
// sample's tuple layout) over the subpopulation represented by r.
func FromReservoir(r *sample.Reservoir, col int, kind AggKind) Estimate {
	var s Selection
	s.Select(r, nil)
	return s.Estimate(col, kind)
}

// Estimate estimates an aggregate of column col over the subpopulation the
// selected tuples represent. The moment passes run only for the kinds that
// read them.
func (s *Selection) Estimate(col int, kind AggKind) Estimate {
	n, w := s.n, s.Weight()
	est := Estimate{Support: n, Weight: w}
	if n == 0 {
		return est
	}
	switch kind {
	case Sum:
		mean, variance := s.moments(col)
		est.Value = w * mean
		// Var(w·mean) = w² · s²/n · fpc
		est.StdErr = w * math.Sqrt(variance/float64(n)*fpc(n, w))
	case Count:
		// The weight is the exact count of considered tuples.
		est.Value = w
	case Avg:
		mean, variance := s.moments(col)
		est.Value = mean
		est.StdErr = math.Sqrt(variance / float64(n) * fpc(n, w))
	case Min:
		m := s.at(0, col)
		for j := 1; j < n; j++ {
			if v := s.at(j, col); v < m {
				m = v
			}
		}
		est.Value = float64(m)
	case Max:
		m := s.at(0, col)
		for j := 1; j < n; j++ {
			if v := s.at(j, col); v > m {
				m = v
			}
		}
		est.Value = float64(m)
	default:
		// invariant: AggKind values come from this package's constants;
		// the SQL planner rejects unknown aggregate tokens at parse time.
		panic(fmt.Sprintf("approx: unknown aggregate %d", int(kind)))
	}
	return est
}

// MinSupport is the default per-stratum support below which LAQy considers
// an estimate unreliable and falls back to online sampling for that
// stratum (§5.2.3).
const MinSupport = 30

// SupportFailures returns the stratum keys with fewer than minSupport tuples
// accepted by keep (nil: every tuple) — the strata for which the conservative
// policy of §5.2.3 would trigger a validating online query. A stratum the
// predicate empties counts: it may still hold qualifying rows the reservoir
// happened to miss.
func SupportFailures(s *sample.Stratified, keep *expr.TupleFilter, minSupport int) []sample.StratumKey {
	var out []sample.StratumKey
	var sel Selection
	s.ForEach(func(key sample.StratumKey, r *sample.Reservoir) {
		sel.Select(r, keep)
		if sel.n < minSupport {
			out = append(out, key)
		}
	})
	return out
}

// RelativeError returns |est-exact|/|exact|, the accuracy metric used when
// validating approximate answers against exact execution; +Inf when exact
// is zero and est is not.
func RelativeError(est, exact float64) float64 {
	if exact == 0 {
		if est == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(est-exact) / math.Abs(exact)
}

// zQuantile returns the standard normal quantile for probability p using
// Acklam's rational approximation (|relative error| < 1.15e-9), sufficient
// for confidence intervals.
func zQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		// invariant: both callers map a validated confidence c ∈ (0,1) to
		// p = 0.5 + c/2 ∈ (0.5, 1) before calling.
		panic(fmt.Sprintf("approx: quantile probability %v outside (0,1)", p))
	}
	const (
		a1 = -3.969683028665376e+01
		a2 = 2.209460984245205e+02
		a3 = -2.759285104469687e+02
		a4 = 1.383577518672690e+02
		a5 = -3.066479806614716e+01
		a6 = 2.506628277459239e+00
		b1 = -5.447609879822406e+01
		b2 = 1.615858368580409e+02
		b3 = -1.556989798598866e+02
		b4 = 6.680131188771972e+01
		b5 = -1.328068155288572e+01
		c1 = -7.784894002430293e-03
		c2 = -3.223964580411365e-01
		c3 = -2.400758277161838e+00
		c4 = -2.549732539343734e+00
		c5 = 4.374664141464968e+00
		c6 = 2.938163982698783e+00
		d1 = 7.784695709041462e-03
		d2 = 3.224671290700398e-01
		d3 = 2.445134137142996e+00
		d4 = 3.754408661907416e+00
	)
	const pLow, pHigh = 0.02425, 1 - 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		return (((((a1*r+a2)*r+a3)*r+a4)*r+a5)*r + a6) * q /
			(((((b1*r+b2)*r+b3)*r+b4)*r+b5)*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	}
}
