package bench

import (
	"fmt"

	"laqy/internal/approx"
	"laqy/internal/core"
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
	baseK := max(d.Cfg.K/10, 8)

	for _, alpha := range []float64{1, 1.5, 2, 4} {
		st := store.New(0)
		lazy := core.New(st, d.Cfg.Seed)
		lazy.SetObs(d.Obs)
		req := d.request(d.q1(0, int64(d.Cfg.Rows-1)), d.Cfg.Seed+uint64(alpha*10))
		req.K, req.Oversample = baseK, alpha
		res, err := lazy.Sample(req)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%.1f", alpha), ms(res.Stats.Wall), fmt.Sprint(st.TotalBytes())}
		for _, sel := range []float64{0.10, 0.02, 0.005} {
			req := d.request(d.q1(0, int64(sel*float64(d.Cfg.Rows))), d.Cfg.Seed)
			req.K = baseK
			tight, err := lazy.Sample(req)
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
