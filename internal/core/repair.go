package core

import (
	"laqy/internal/algebra"
	"laqy/internal/engine"
	"laqy/internal/expr"
	"laqy/internal/sample"
)

// repairSupport implements the refined conservative policy of §5.2.3: when
// tightening leaves some strata below the support threshold, an online
// query is executed for those strata only — the query predicate conjoined
// with the stratification key values, pushed below the sampler — and the
// freshly sampled strata replace the under-supported ones. Replacement is
// sound because each repaired stratum is a direct uniform sample of
// exactly the query-qualifying rows of that stratum (a strict superset of
// what the tightened reservoir represented), and it also validates whether
// the low support reflects the true data distribution: strata absent from
// the repair genuinely have few qualifying rows and keep their (exact)
// tightened contents.
//
// A replaced stratum holds tuples the stored sample does not, so this is the
// one place a tightened answer is materialized (from.Filter, restored into
// and sealed), and only once the repair has a stratum to install; otherwise
// the view (from, keep) stands.
//
// Repair applies when the sample is stratified on a single physical
// column (the common case; multi-column keys would need disjunctive
// predicates the engine does not express). It returns nil when the shape is
// not repairable, in which case the caller falls back to full online
// sampling; so does a repair that dropped segments.
func (l *LazySampler) repairSupport(req Request, schema sample.Schema, from *sample.Stratified,
	keep *expr.TupleFilter, fails []sample.StratumKey) (*Result, error) {

	if req.QCSWidth != 1 {
		return nil, nil
	}
	qcsCol := schema[0]
	if engine.ParseExprName(qcsCol).Op != 0 {
		// A computed stratification key cannot be pushed down as a filter.
		return nil, nil
	}
	keys := algebra.Set{}
	for _, k := range fails {
		keys = keys.Union(algebra.SetOf(algebra.Point(k[0])))
	}
	repairQuery, err := pushDown(req.Query, algebra.NewPredicate().With(qcsCol, keys))
	if err != nil {
		// The QCS column is not a base column of the query's tables
		// (should not happen for planned queries); not repairable.
		return nil, nil
	}
	repaired, dropped, err := buildSample(repairQuery, schema, req.QCSWidth, req.effectiveK(), req.Seed^0x5EFA, req.Workers, nil,
		"support repair")
	if err != nil || dropped {
		// A repair that dropped segments samples only part of each
		// stratum's rows, and its weights would under-count them: not
		// repairable. The online fallback labels its own drops.
		return nil, err
	}
	var fixed *sample.Builder
	for _, k := range fails {
		r := repaired.Sample.Stratum(k)
		if r == nil {
			// Strata absent from the repair have genuinely few qualifying
			// rows; the tightened (near-exact) contents stand.
			continue
		}
		if fixed == nil {
			fixed = from.Filter(keep)
		}
		if err := fixed.Restore(k, r); err != nil {
			return nil, err
		}
	}
	if fixed == nil {
		return &Result{Sample: from, Keep: keep, Stats: repaired.Stats}, nil
	}
	return &Result{Sample: sample.Seal(fixed, req.Workers), Stats: repaired.Stats}, nil
}
