package bench

import (
	"fmt"
	"time"

	"laqy/internal/algebra"
	"laqy/internal/engine"
	"laqy/internal/rng"
	"laqy/internal/sample"
	"laqy/internal/ssb"
)

// qcsColumns returns the stratification column names for a strata target,
// per the paper's Table 1: 50 → lo_quantity, 450 → +lo_tax, 4950 →
// +lo_discount.
func qcsColumns(strata int) ([]string, error) {
	switch strata {
	case 50:
		return []string{"lo_quantity"}, nil
	case 450:
		return []string{"lo_quantity", "lo_tax"}, nil
	case 4950:
		return []string{"lo_quantity", "lo_tax", "lo_discount"}, nil
	default:
		return nil, fmt.Errorf("bench: unsupported strata count %d (50, 450, 4950)", strata)
	}
}

// buildDirect feeds the first n fact rows straight into a stratified
// sample through the engine's admission path (one ConsiderColumns batch),
// isolating pure sample-construction time from scan and filter cost — the
// measurement of the paper's Figures 3 and 4.
func (d *Data) buildDirect(strata, k, n int, seed uint64) (time.Duration, *sample.Stratified, error) {
	cols, err := qcsColumns(strata)
	if err != nil {
		return 0, nil, err
	}
	schema := sample.Schema(append(append([]string{}, cols...), "lo_revenue"))
	n = min(n, d.Lineorder.NumRows())
	vecs := make([][]int64, len(schema))
	for i, name := range schema {
		c := d.Lineorder.Column(name)
		if c == nil {
			return 0, nil, fmt.Errorf("bench: column %q missing", name)
		}
		vecs[i] = c.Ints[:n]
	}
	s := sample.NewStratified(schema, len(cols), k, rng.NewLehmer64(seed))
	start := time.Now()
	s.ConsiderColumns(vecs, n)
	return time.Since(start), s, nil
}

// Fig3 reproduces Figure 3: stratified-sample build time as a function of
// the number of input tuples and the number of strata defined by the QCS.
// Expected shape: ~linear in tuples; more strata shift the curve up, with
// the per-stratum initialization dominating at small inputs.
func Fig3(d *Data) (*Table, error) {
	t := &Table{
		ID:     "fig3",
		Title:  "stratified sample build time vs #tuples and #strata (k=" + fmt.Sprint(d.Cfg.K) + ")",
		Header: []string{"tuples", "strata=50 (ms)", "strata=450 (ms)", "strata=4950 (ms)"},
	}
	for _, frac := range []int{16, 8, 4, 2, 1} {
		n := d.Cfg.Rows / frac
		row := []string{fmt.Sprint(n)}
		for _, strata := range []int{50, 450, 4950} {
			dur, _, err := d.buildDirect(strata, d.Cfg.K, n, d.Cfg.Seed+uint64(strata))
			if err != nil {
				return nil, err
			}
			row = append(row, ms(dur))
		}
		t.Append(row...)
	}
	return t, nil
}

// Fig4 reproduces Figure 4: the impact of incrementing the per-reservoir
// capacity on build time, for each strata count, over the full input.
// Expected shape: k has a marginal effect compared to the strata count.
func Fig4(d *Data) (*Table, error) {
	t := &Table{
		ID:     "fig4",
		Title:  "build time vs per-reservoir capacity increment (full input)",
		Header: []string{"k increment", "strata=50 (ms)", "strata=450 (ms)", "strata=4950 (ms)"},
	}
	base := d.Cfg.K
	for _, inc := range []int{0, 500, 1000, 1500, 2000} {
		row := []string{fmt.Sprint(inc)}
		for _, strata := range []int{50, 450, 4950} {
			dur, _, err := d.buildDirect(strata, base+inc, d.Cfg.Rows, d.Cfg.Seed+uint64(strata+inc))
			if err != nil {
				return nil, err
			}
			row = append(row, ms(dur))
		}
		t.Append(row...)
	}
	return t, nil
}

// Table1 verifies the paper's Table 1: the observed number of strata for
// 1-, 2- and 3-column QCSs over (lo_quantity, lo_tax, lo_discount).
func Table1(d *Data) (*Table, error) {
	t := &Table{
		ID:     "table1",
		Title:  "query column set mapping and observed |QCS| sizes",
		Header: []string{"QCS columns", "expected strata", "observed strata"},
	}
	for _, tc := range []struct {
		strata int
	}{{50}, {450}, {4950}} {
		cols, _ := qcsColumns(tc.strata)
		_, s, err := d.buildDirect(tc.strata, 8, d.Cfg.Rows, d.Cfg.Seed)
		if err != nil {
			return nil, err
		}
		t.Append(fmt.Sprint(cols), fmt.Sprint(tc.strata), fmt.Sprint(s.NumStrata()))
	}
	return t, nil
}

// selectivityBounds converts a selectivity fraction into a closed range on
// lo_intkey (a shuffled unique key over [0, Rows)).
func (d *Data) selectivityBounds(sel float64) (int64, int64) {
	hi := int64(sel*float64(d.Cfg.Rows)) - 1
	if hi < 0 {
		hi = 0
	}
	return 0, hi
}

// Fig6 reproduces Figure 6: sampling time at various selectivities for the
// three predicate-predictability strategies:
//
//   - "pred QVS": predictable predicate on a QVS column (lo_intkey) —
//     filter pushdown below a 450-strata sampler;
//   - "pred in QCS": unpredictable predicate resolved by adding the column
//     to the QCS — 4950 strata, no pushdown, selectivity-independent;
//   - "pred on QCS": predictable predicate on a QCS column (lo_quantity) —
//     pushdown shrinks both input and strata.
//
// Expected shape: the all-or-none "pred in QCS" strategy costs up to an
// order of magnitude more than predicate-specific sampling; LAQy's lazy
// Δ-samples keep queries on the cheap curves.
func Fig6(d *Data) (*Table, error) {
	t := &Table{
		ID:     "fig6",
		Title:  "sampling time for various selectivities (ms)",
		Header: []string{"selectivity", "pred QVS (450)", "pred in QCS (4950)", "pred on QCS (450-4950)"},
	}
	workers := d.Cfg.Workers
	for _, selPct := range []int{1, 5, 10, 25, 50, 75, 100} {
		sel := float64(selPct) / 100
		row := []string{fmt.Sprintf("%d%%", selPct)}

		// Strategy 1: pushdown on lo_intkey (QVS), 450 strata.
		lo, hi := d.selectivityBounds(sel)
		q := &engine.Query{
			Fact:   d.Lineorder,
			Filter: algebra.NewPredicate().WithRange("lo_intkey", lo, hi),
		}
		_, stats, err := engine.RunStratified(q,
			sample.Schema{"lo_quantity", "lo_tax", "lo_revenue"}, 2, d.Cfg.K, d.Cfg.Seed, workers)
		if err != nil {
			return nil, err
		}
		row = append(row, ms(stats.Wall))

		// Strategy 2: predicate column added to QCS, full input, 4950
		// strata (selectivity-independent cost).
		q2 := &engine.Query{Fact: d.Lineorder}
		_, stats2, err := engine.RunStratified(q2,
			sample.Schema{"lo_quantity", "lo_tax", "lo_discount", "lo_revenue"}, 3, d.Cfg.K, d.Cfg.Seed+1, workers)
		if err != nil {
			return nil, err
		}
		row = append(row, ms(stats2.Wall))

		// Strategy 3: pushdown on lo_quantity (a QCS column): strata and
		// input shrink together.
		qHi := int64(sel * float64(ssb.QuantityMax))
		if qHi < ssb.QuantityMin {
			qHi = ssb.QuantityMin
		}
		q3 := &engine.Query{
			Fact:   d.Lineorder,
			Filter: algebra.NewPredicate().WithRange("lo_quantity", ssb.QuantityMin, qHi),
		}
		_, stats3, err := engine.RunStratified(q3,
			sample.Schema{"lo_quantity", "lo_tax", "lo_discount", "lo_revenue"}, 3, d.Cfg.K, d.Cfg.Seed+2, workers)
		if err != nil {
			return nil, err
		}
		row = append(row, ms(stats3.Wall))
		t.Append(row...)
	}
	return t, nil
}

// fig8Row measures GroupBy vs stratified sampling under one predicate.
func (d *Data) fig8Row(pred algebra.Predicate, qcs []string, label string) ([]string, error) {
	q := &engine.Query{Fact: d.Lineorder, Filter: pred}
	_, gbStats, err := engine.RunGroupBy(q, qcs, "lo_revenue", d.Cfg.Workers)
	if err != nil {
		return nil, err
	}
	schema := sample.Schema(append(append([]string{}, qcs...), "lo_revenue"))
	_, ssStats, err := engine.RunStratified(q, schema, len(qcs), d.Cfg.K, d.Cfg.Seed, d.Cfg.Workers)
	if err != nil {
		return nil, err
	}
	return []string{label, ms(gbStats.Wall), ms(ssStats.Wall)}, nil
}

// Fig8a reproduces Figure 8a: selectivity applied to the QCS column
// (lo_quantity) — both the strata count and the input shrink. Expected
// shape: stratified sampling tracks GroupBy (shared access pattern) with a
// constant reservoir-maintenance overhead.
func Fig8a(d *Data) (*Table, error) {
	t := &Table{
		ID:     "fig8a",
		Title:  "GroupBy vs stratified sampling: selectivity on the QCS column",
		Header: []string{"selectivity (of |QCS|=4950)", "GroupBy (ms)", "StratSample (ms)"},
	}
	for _, selPct := range []int{10, 25, 50, 75, 100} {
		qHi := ssb.QuantityMin + int64(float64(selPct)/100*float64(ssb.QuantityMax-ssb.QuantityMin))
		pred := algebra.NewPredicate().WithRange("lo_quantity", ssb.QuantityMin, qHi)
		row, err := d.fig8Row(pred, []string{"lo_quantity", "lo_tax", "lo_discount"}, fmt.Sprintf("%d%%", selPct))
		if err != nil {
			return nil, err
		}
		t.Append(row...)
	}
	return t, nil
}

// Fig8b reproduces Figure 8b: selectivity applied to a QVS column
// (lo_intkey) — the input shrinks, the strata count does not. Expected
// shape: time falls roughly proportionally with selectivity for both
// operators.
func Fig8b(d *Data) (*Table, error) {
	t := &Table{
		ID:     "fig8b",
		Title:  "GroupBy vs stratified sampling: selectivity on a QVS column",
		Header: []string{"selectivity", "GroupBy (ms)", "StratSample (ms)"},
	}
	for _, selPct := range []int{10, 25, 50, 75, 100} {
		lo, hi := d.selectivityBounds(float64(selPct) / 100)
		pred := algebra.NewPredicate().WithRange("lo_intkey", lo, hi)
		row, err := d.fig8Row(pred, []string{"lo_quantity", "lo_tax", "lo_discount"}, fmt.Sprintf("%d%%", selPct))
		if err != nil {
			return nil, err
		}
		t.Append(row...)
	}
	return t, nil
}

// Fig8c reproduces Figure 8c: the 0–2% low-selectivity regime where both
// the strata reached and the tuples processed collapse — the regime LAQy's
// Δ-samples live in.
func Fig8c(d *Data) (*Table, error) {
	t := &Table{
		ID:     "fig8c",
		Title:  "GroupBy vs stratified sampling: low selectivity on a QVS column",
		Header: []string{"selectivity", "GroupBy (ms)", "StratSample (ms)"},
	}
	for _, selPermille := range []int{1, 5, 10, 20} {
		lo, hi := d.selectivityBounds(float64(selPermille) / 1000)
		pred := algebra.NewPredicate().WithRange("lo_intkey", lo, hi)
		row, err := d.fig8Row(pred, []string{"lo_quantity", "lo_tax", "lo_discount"}, fmt.Sprintf("%.1f%%", float64(selPermille)/10))
		if err != nil {
			return nil, err
		}
		t.Append(row...)
	}
	return t, nil
}
