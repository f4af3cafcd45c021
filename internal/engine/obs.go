package engine

import (
	"time"

	"laqy/internal/obs"
)

// finishPipeline publishes one pipeline execution to the observability
// substrate carried by the query context: the engine's registry instruments
// and one retroactive trace span covering the measured pipeline wall time.
//
// It runs once per query, after the morsel workers have joined — the hot
// per-morsel loop itself is never instrumented (the engine package is
// deliberately outside the obscheck clock seam; raw time.Now keeps the
// worker loop allocation-free and branch-predictable). When the context
// carries no registry and no span this is two nil checks.
func finishPipeline(q *Query, st *Stats, morsels int, start, end time.Time) {
	if reg := obs.RegistryFrom(q.Ctx); reg != nil {
		reg.Counter(obs.MEngineRuns).Inc()
		reg.Counter(obs.MEngineMorsels).Add(int64(morsels))
		reg.Counter(obs.MEngineMorselsPruned).Add(st.MorselsPruned)
		reg.Counter(obs.MEngineMorselsFull).Add(st.MorselsFull)
		reg.Counter(obs.MEngineMorselsFused).Add(st.MorselsFused)
		reg.Counter(obs.MEngineRowsScanned).Add(st.RowsScanned)
		reg.Counter(obs.MEngineRowsSelected).Add(st.RowsSelected)
		reg.Histogram(obs.MEngineWallSeconds).Observe(st.Wall)
		reg.Histogram(obs.MEngineScanSeconds).Observe(st.Scan)
	}
	if sp := obs.SpanFrom(q.Ctx); sp != nil {
		p := sp.Record("pipeline", start, end)
		p.SetAttrInt("workers", int64(st.Workers))
		p.SetAttrInt("morsels", int64(morsels))
		p.SetAttrInt("pruned", st.MorselsPruned)
		p.SetAttrInt("full", st.MorselsFull)
		if st.MorselsFused > 0 {
			p.SetAttrInt("fused", st.MorselsFused)
		}
		p.SetAttrInt("rows_scanned", st.RowsScanned)
		p.SetAttrInt("rows_selected", st.RowsSelected)
	}
}
