package bench

import (
	"fmt"

	"laqy/internal/algebra"
	"laqy/internal/approx"
	"laqy/internal/core"
	"laqy/internal/engine"
	"laqy/internal/sample"
	"laqy/internal/store"
)

// Alpha reproduces the oversampling-factor discussion of §5.2.3: building
// reservoirs of capacity α·k trades space for a higher chance that a
// tightened reuse keeps sufficient per-stratum support. For each α, a
// sample is built over a wide range and then tightened to progressively
// narrower ranges; the table reports the build time, the sample footprint,
// and the fraction of tightened strata falling below the support threshold.
//
// Expected shape: support failures drop as α grows while build time stays
// nearly flat (Figure 4's marginal-k observation).
func Alpha(d *Data) (*Table, error) {
	t := &Table{
		ID:    "alpha",
		Title: fmt.Sprintf("oversampling factor vs support failures (minSupport=%d)", approx.MinSupport),
		Header: []string{"alpha", "build (ms)", "sample bytes",
			"fail@sel=10%", "fail@sel=2%", "fail@sel=0.5%"},
	}
	baseK := d.Cfg.K / 10
	if baseK < 8 {
		baseK = 8
	}
	wide := algebra.NewPredicate().WithRange("lo_intkey", 0, int64(d.Cfg.Rows-1))
	schema := sample.Schema{"lo_orderdate", "lo_revenue", "lo_intkey"}

	for _, alpha := range []float64{1, 1.5, 2, 4} {
		st := store.New(0)
		lazy := core.New(st, d.Cfg.Seed)
		lazy.SetObs(d.Obs)
		res, err := lazy.Sample(core.Request{
			Query:      &engine.Query{Fact: d.Lineorder, Filter: wide},
			Predicate:  wide,
			Schema:     schema,
			QCSWidth:   1,
			K:          baseK,
			Seed:       d.Cfg.Seed + uint64(alpha*10),
			Workers:    d.Cfg.Workers,
			Oversample: alpha,
		})
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%.1f", alpha), ms(res.Stats.Wall), fmt.Sprint(st.TotalBytes())}
		for _, sel := range []float64{0.10, 0.02, 0.005} {
			hi := int64(sel * float64(d.Cfg.Rows))
			narrow := algebra.NewPredicate().WithRange("lo_intkey", 0, hi)
			tight, err := lazy.Sample(core.Request{
				Query:     &engine.Query{Fact: d.Lineorder, Filter: narrow},
				Predicate: narrow,
				Schema:    schema,
				QCSWidth:  1,
				K:         baseK,
				Seed:      d.Cfg.Seed,
				Workers:   d.Cfg.Workers,
			})
			if err != nil {
				return nil, err
			}
			// The ratio is over the strata tightening leaves tuples in.
			low := approx.SupportFailures(tight.Sample, tight.Keep, approx.MinSupport)
			empty := approx.SupportFailures(tight.Sample, tight.Keep, 1)
			total := tight.Sample.NumStrata() - len(empty)
			if total == 0 {
				row = append(row, "n/a")
				continue
			}
			row = append(row, pct(float64(len(low)-len(empty))/float64(total)))
		}
		t.Append(row...)
	}
	return t, nil
}
