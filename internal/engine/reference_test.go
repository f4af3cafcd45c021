package engine

import "laqy/internal/approx"

// sums asks RunExact for the SUM of each expression, output i being
// exprs[i]'s.
func sums(exprs ...ColumnExpr) []Agg {
	out := make([]Agg, len(exprs))
	for i, e := range exprs {
		out[i] = Agg{Expr: e, Kind: approx.Sum}
	}
	return out
}

// allKinds asks RunExact for every aggregate kind of col, output i being
// approx.AggKind(i), so tests read a kind as res.Value(key, int(kind)).
// The MIN and MAX outputs keep the run on the group-by sink.
func allKinds(col string) []Agg {
	out := make([]Agg, approx.Max+1)
	for k := range out {
		out[k] = Agg{Expr: Col(col), Kind: approx.AggKind(k)}
	}
	return out
}

// foldSums runs the SUM of each expression and their shared COUNT through
// RunExact — ungrouped SUM/COUNT, so a join-free q takes the fused fold —
// and returns the sums and the count; both are zero when no group came
// back.
func foldSums(q *Query, exprs []ColumnExpr, workers int) ([]float64, int64, Stats, error) {
	aggs := append(sums(exprs...), Agg{Expr: exprs[0], Kind: approx.Count})
	res, stats, err := RunExact(q, nil, aggs, workers)
	if err != nil {
		return nil, 0, stats, err
	}
	out := make([]float64, len(exprs))
	for i := range out {
		out[i], _ = res.Value(GroupKey{}, i)
	}
	count, _ := res.Value(GroupKey{}, len(exprs))
	return out, int64(count), stats, nil
}

// scanSink folds the selected rows of one column into a running sum — the
// cheapest possible consumer of the materializing pipeline.
type scanSink struct {
	sum float64
}

func (s *scanSink) consume(cols [][]int64, n int) {
	acc := int64(0)
	col := cols[0]
	for i := 0; i < n; i++ {
		acc += col[i]
	}
	s.sum += float64(acc)
}

// RunScan computes SUM(col) over q's qualifying rows by materializing each
// morsel's selection and gathering the column through the sink pipeline.
// It is the reference the encoded and fused equivalence suites pin
// RunExact's fused fold (the body ungrouped exact queries take) against: same
// per-morsel int64 partial, same float64 accumulation, no fused folds.
func RunScan(q *Query, col string, workers int) (float64, Stats, error) {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	sinks := make([]rowSink, workers)
	partials := make([]*scanSink, workers)
	for w := 0; w < workers; w++ {
		partials[w] = &scanSink{}
		sinks[w] = partials[w]
	}
	stats, err := runPipeline(q, ExprsFromNames([]string{col}), workers, sinks)
	if err != nil {
		return 0, stats, err
	}
	total := 0.0
	for _, p := range partials {
		total += p.sum
	}
	return total, stats, nil
}
