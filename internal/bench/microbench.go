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

// A Case is one timed cell of a micro-benchmark figure: the table row it
// belongs to, the column it fills and the operation it times.
type Case struct {
	Row, Col string
	Run      func() (time.Duration, error)
}

// A Figure is a micro-benchmark figure (Figs. 3, 4, 6, 8) before it runs:
// the table it fills and its cases in row-major order. cmd/laqy-bench runs
// it into the table; bench_test.go times each case as a sub-benchmark.
type Figure struct {
	Table *Table
	Cases []Case
}

// Run times every case once and lays the timings out one row per
// consecutive run of cases sharing a Row label.
func (f Figure) Run() (*Table, error) {
	t := *f.Table
	for i, c := range f.Cases {
		dur, err := c.Run()
		if err != nil {
			return nil, err
		}
		if i == 0 || c.Row != f.Cases[i-1].Row {
			t.Append(c.Row)
		}
		t.Rows[len(t.Rows)-1] = append(t.Rows[len(t.Rows)-1], ms(dur))
	}
	return &t, nil
}

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

// strataSchema is the sample schema over a strata target's QCS columns plus
// the lo_revenue measure.
func strataSchema(strata int) (sample.Schema, error) {
	cols, err := qcsColumns(strata)
	return sample.Schema(append(cols, "lo_revenue")), err
}

// buildDirect feeds the first n fact rows straight into a stratified
// sample through the engine's admission path (one ConsiderColumns batch),
// isolating pure sample-construction time from scan and filter cost — the
// measurement of the paper's Figures 3 and 4.
func (d *Data) buildDirect(strata, k, n int, seed uint64) (time.Duration, *sample.Builder, error) {
	schema, err := strataSchema(strata)
	if err != nil {
		return 0, nil, err
	}
	n = min(n, d.Lineorder.NumRows())
	vecs := make([][]int64, len(schema))
	for i, name := range schema {
		c := d.Lineorder.Column(name)
		if c == nil {
			return 0, nil, fmt.Errorf("bench: column %q missing", name)
		}
		vecs[i] = c.Ints[:n]
	}
	s := sample.NewBuilder(schema, len(schema)-1, k, rng.NewLehmer64(seed))
	start := time.Now()
	s.ConsiderColumns(vecs, n)
	return time.Since(start), s, nil
}

// buildCase times buildDirect as one figure cell.
func (d *Data) buildCase(row string, strata, k, n int, seed uint64) Case {
	return Case{Row: row, Col: fmt.Sprintf("strata=%d", strata), Run: func() (time.Duration, error) {
		dur, _, err := d.buildDirect(strata, k, n, seed)
		return dur, err
	}}
}

// stratifiedCase times the engine's stratified-sampling operator over a
// filtered fact scan (scan + filter + admission) as one figure cell.
func (d *Data) stratifiedCase(row, col string, filter algebra.Predicate, strata int, seed uint64) Case {
	return Case{Row: row, Col: col, Run: func() (time.Duration, error) {
		schema, err := strataSchema(strata)
		if err != nil {
			return 0, err
		}
		q := &engine.Query{Fact: d.Lineorder, Filter: filter}
		_, st, err := engine.RunStratifiedExprs(q, engine.ExprsFromNames(schema), len(schema)-1, d.Cfg.K, seed, d.Cfg.Workers)
		return st.Wall, err
	}}
}

// Fig3 reproduces Figure 3: stratified-sample build time as a function of
// the number of input tuples and the number of strata defined by the QCS.
// Expected shape: ~linear in tuples; more strata shift the curve up, with
// the per-stratum initialization dominating at small inputs.
func Fig3(d *Data) Figure {
	f := Figure{Table: &Table{
		ID:     "fig3",
		Title:  "stratified sample build time vs #tuples and #strata (k=" + fmt.Sprint(d.Cfg.K) + ")",
		Header: []string{"tuples", "strata=50 (ms)", "strata=450 (ms)", "strata=4950 (ms)"},
	}}
	for _, frac := range []int{16, 8, 4, 2, 1} {
		n := d.Cfg.Rows / frac
		for _, strata := range []int{50, 450, 4950} {
			f.Cases = append(f.Cases, d.buildCase(fmt.Sprint(n), strata, d.Cfg.K, n, d.Cfg.Seed+uint64(strata)))
		}
	}
	return f
}

// Fig4 reproduces Figure 4: the impact of incrementing the per-reservoir
// capacity on build time, for each strata count, over the full input.
// Expected shape: k has a marginal effect compared to the strata count.
func Fig4(d *Data) Figure {
	f := Figure{Table: &Table{
		ID:     "fig4",
		Title:  "build time vs per-reservoir capacity increment (full input)",
		Header: []string{"k increment", "strata=50 (ms)", "strata=450 (ms)", "strata=4950 (ms)"},
	}}
	for _, inc := range []int{0, 500, 1000, 1500, 2000} {
		for _, strata := range []int{50, 450, 4950} {
			f.Cases = append(f.Cases, d.buildCase(fmt.Sprint(inc), strata, d.Cfg.K+inc, d.Cfg.Rows, d.Cfg.Seed+uint64(strata+inc)))
		}
	}
	return f
}

// Table1 verifies the paper's Table 1: the observed number of strata for
// 1-, 2- and 3-column QCSs over (lo_quantity, lo_tax, lo_discount).
func Table1(d *Data) (*Table, error) {
	t := &Table{
		ID:     "table1",
		Title:  "query column set mapping and observed |QCS| sizes",
		Header: []string{"QCS columns", "expected strata", "observed strata"},
	}
	for _, strata := range []int{50, 450, 4950} {
		cols, _ := qcsColumns(strata)
		_, s, err := d.buildDirect(strata, 8, d.Cfg.Rows, d.Cfg.Seed)
		if err != nil {
			return nil, err
		}
		t.Append(fmt.Sprint(cols), fmt.Sprint(strata), fmt.Sprint(s.NumStrata()))
	}
	return t, nil
}

// intkeyPrefix is the predicate selecting a sel fraction of the fact table
// on lo_intkey (a shuffled unique key over [0, Rows)).
func (d *Data) intkeyPrefix(sel float64) algebra.Predicate {
	return algebra.NewPredicate().WithRange("lo_intkey", 0, max(int64(sel*float64(d.Cfg.Rows))-1, 0))
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
func Fig6(d *Data) Figure {
	f := Figure{Table: &Table{
		ID:     "fig6",
		Title:  "sampling time for various selectivities (ms)",
		Header: []string{"selectivity", "pred QVS (450)", "pred in QCS (4950)", "pred on QCS (450-4950)"},
	}}
	for _, selPct := range []int{1, 5, 10, 25, 50, 75, 100} {
		sel := float64(selPct) / 100
		row := fmt.Sprintf("%d%%", selPct)
		qHi := max(int64(sel*float64(ssb.QuantityMax)), ssb.QuantityMin)
		f.Cases = append(f.Cases,
			d.stratifiedCase(row, "predQVS_450", d.intkeyPrefix(sel), 450, d.Cfg.Seed),
			d.stratifiedCase(row, "predInQCS_4950", algebra.NewPredicate(), 4950, d.Cfg.Seed+1),
			d.stratifiedCase(row, "predOnQCS", algebra.NewPredicate().WithRange("lo_quantity", ssb.QuantityMin, qHi), 4950, d.Cfg.Seed+2))
	}
	return f
}

// Fig8 reproduces Figures 8a–8c, in that order: the exact GroupBy vs
// stratified sampling over the 4950-strata QCS as a predicate's
// selectivity shrinks.
//
//   - 8a: selectivity on the QCS column (lo_quantity) — both the strata
//     count and the input shrink;
//   - 8b: selectivity on a QVS column (lo_intkey) — the input shrinks, the
//     strata count does not;
//   - 8c: the 0–2% low-selectivity regime LAQy's Δ-samples live in.
//
// Expected shape: stratified sampling tracks GroupBy (shared access pattern
// and key index) with a constant reservoir-maintenance overhead, and time
// falls roughly proportionally with QVS selectivity.
func Fig8(d *Data) []Figure {
	type point struct {
		label string
		pred  algebra.Predicate
	}
	var qcsSel, qvsSel, lowSel []point
	for _, selPct := range []int{10, 25, 50, 75, 100} {
		label := fmt.Sprintf("%d%%", selPct)
		qHi := ssb.QuantityMin + int64(float64(selPct)/100*float64(ssb.QuantityMax-ssb.QuantityMin))
		qcsSel = append(qcsSel, point{label, algebra.NewPredicate().WithRange("lo_quantity", ssb.QuantityMin, qHi)})
		qvsSel = append(qvsSel, point{label, d.intkeyPrefix(float64(selPct) / 100)})
	}
	for _, selPermille := range []int{1, 5, 10, 20} {
		lowSel = append(lowSel, point{fmt.Sprintf("%.1f%%", float64(selPermille)/10), d.intkeyPrefix(float64(selPermille) / 1000)})
	}
	panel := func(id, title, selHeader string, points []point) Figure {
		f := Figure{Table: &Table{
			ID:     id,
			Title:  "GroupBy vs stratified sampling: " + title,
			Header: []string{selHeader, "GroupBy (ms)", "StratSample (ms)"},
		}}
		qcs := []string{"lo_quantity", "lo_tax", "lo_discount"}
		for _, p := range points {
			q := &engine.Query{Fact: d.Lineorder, Filter: p.pred}
			f.Cases = append(f.Cases, Case{Row: p.label, Col: "groupby", Run: func() (time.Duration, error) {
				_, st, err := engine.RunExact(q, qcs, sumRevenue, d.Cfg.Workers)
				return st.Wall, err
			}}, d.stratifiedCase(p.label, "stratified", p.pred, 4950, d.Cfg.Seed))
		}
		return f
	}
	return []Figure{
		panel("fig8a", "selectivity on the QCS column", "selectivity (of |QCS|=4950)", qcsSel),
		panel("fig8b", "selectivity on a QVS column", "selectivity", qvsSel),
		panel("fig8c", "low selectivity on a QVS column", "selectivity", lowSel),
	}
}
