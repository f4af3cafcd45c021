package core

import (
	"laqy/internal/algebra"
	"laqy/internal/engine"
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
// Repair applies when the sample is stratified on a single physical
// column (the common case; multi-column keys would need disjunctive
// predicates the engine does not express). It returns ok=false when the
// shape is not repairable, in which case the caller falls back to full
// online sampling.
func (l *LazySampler) repairSupport(req Request, schema sample.Schema, answer *sample.Stratified,
	fails []sample.StratumKey) (engine.Stats, bool, error) {

	if req.QCSWidth != 1 || len(fails) == 0 {
		return engine.Stats{}, false, nil
	}
	qcsCol := schema[0]
	if engine.ParseExprName(qcsCol).Op != 0 {
		// A computed stratification key cannot be pushed down as a filter.
		return engine.Stats{}, false, nil
	}
	keys := algebra.Set{}
	for _, k := range fails {
		keys = keys.Union(algebra.SetOf(algebra.Point(k[0])))
	}
	repairQuery, err := pushDown(req.Query, algebra.NewPredicate().With(qcsCol, keys))
	if err != nil {
		// The QCS column is not a base column of the query's tables
		// (should not happen for planned queries); not repairable.
		return engine.Stats{}, false, nil
	}
	repaired, stats, err := engine.RunStratifiedExprs(repairQuery, engine.ExprsFromNames(schema),
		req.QCSWidth, req.effectiveK(), req.Seed^0x5EFA, req.Workers, nil)
	if err != nil {
		return engine.Stats{}, false, err
	}
	for _, k := range fails {
		if r := repaired.Stratum(k); r != nil {
			if err := answer.Restore(k, r); err != nil {
				return engine.Stats{}, false, err
			}
		}
		// Strata absent from the repair have genuinely few qualifying
		// rows; the tightened (near-exact) contents stand.
	}
	return stats, true, nil
}

// checkSupport applies the support policy to a tightened sample: no policy
// (MinSupport <= 0) accepts; otherwise failing strata are repaired in
// place when possible. source is the pre-tightening sample: strata that
// tightening emptied out entirely are failures too — the core AQP
// requirement is that every group of the output stays represented, and a
// vanished stratum may still hold qualifying rows the small reservoir
// happened to miss. It returns the repair execution stats and whether the
// answer now satisfies the policy (false = caller must fall back to full
// online sampling).
func (l *LazySampler) checkSupport(req Request, schema sample.Schema, source, answer *sample.Stratified) (engine.Stats, bool, error) {
	if req.MinSupport <= 0 {
		return engine.Stats{}, true, nil
	}
	var fails []sample.StratumKey
	source.ForEach(func(key sample.StratumKey, _ *sample.Reservoir) {
		r := answer.Stratum(key)
		if r == nil || !r.SupportOK(req.MinSupport) {
			fails = append(fails, key)
		}
	})
	if len(fails) == 0 {
		return engine.Stats{}, true, nil
	}
	stats, ok, err := l.repairSupport(req, schema, answer, fails)
	if err != nil {
		return engine.Stats{}, false, err
	}
	return stats, ok, nil
}
