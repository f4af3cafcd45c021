package bench

import (
	"fmt"

	"laqy/internal/core"
	"laqy/internal/engine"
	"laqy/internal/store"
)

// ReuseSweep reproduces the abstract's headline claim directly: "LAQy
// speeds up online sampling processing as a function of sample reuse
// ranging from practically zero to full online sampling time."
//
// For each overlap fraction f, a sample is built over a base range, and a
// follow-up query of equal width overlaps it by exactly f. Workload-
// oblivious online sampling pays the full query cost regardless of f; LAQy
// pays only for the (1-f) missing range, degenerating to pure online cost
// at f=0 and to (nearly) free offline reuse at f=1.
func ReuseSweep(d *Data) (*Table, error) {
	t := &Table{
		ID:     "reuse",
		Title:  "LAQy cost vs overlap fraction (the abstract's reuse spectrum)",
		Header: []string{"overlap", "laqy mode", "delta rows", "online (ms)", "laqy (ms)", "speedup"},
	}
	width := int64(d.Cfg.Rows) / 4 // each query covers 25% of the data

	for _, pct := range []int{0, 25, 50, 75, 100} {
		lazy := core.New(store.New(0), d.Cfg.Seed+uint64(pct))
		lazy.SetObs(d.Obs)
		if _, err := lazy.Sample(d.request(d.q1(0, width-1), d.Cfg.Seed+100)); err != nil {
			return nil, err
		}
		qLo := width - width*int64(pct)/100
		q := d.q1(qLo, qLo+width-1)

		// Workload-oblivious online sampling of the follow-up query.
		_, onStats, err := engine.RunStratifiedExprs(q.Query, engine.ExprsFromNames(q.Schema), 1, d.seqK(), d.Cfg.Seed+200, d.Cfg.Workers)
		if err != nil {
			return nil, err
		}
		// LAQy.
		res, err := lazy.Sample(d.request(q, d.Cfg.Seed+300))
		if err != nil {
			return nil, err
		}
		deltaRows := int64(0)
		if res.Mode != core.ModeOffline {
			deltaRows = res.Missing.Count()
		}
		t.Append(fmt.Sprintf("%d%%", pct), res.Mode.String(), fmt.Sprint(deltaRows),
			ms(onStats.Wall), ms(res.Total), speedup(onStats.Wall, res.Total))
	}
	return t, nil
}
