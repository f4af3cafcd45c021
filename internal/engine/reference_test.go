package engine

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
// RunAggregate (the path exact queries actually take) against: same
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
	stats, err := runPipeline(q, Cols([]string{col}), workers, sinks)
	if err != nil {
		return 0, stats, err
	}
	total := 0.0
	for _, p := range partials {
		total += p.sum
	}
	return total, stats, nil
}
