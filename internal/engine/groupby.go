package engine

import (
	"slices"

	"laqy/internal/approx"
	"laqy/internal/governor"
	"laqy/internal/sample"
)

// GroupKey identifies a group of an exact aggregation; it reuses the
// stratified sample's key representation so exact results and sample-based
// estimates are directly comparable per group.
type GroupKey = sample.StratumKey

// aggState accumulates all supported aggregates at once; the caller picks
// which to read. Sums use float64 to avoid overflow on large synthetic
// inputs; inputs are integers so precision is ample at benchmark scales.
type aggState struct {
	sum        float64
	count      int64
	minv, maxv int64
}

func (a *aggState) update(v int64) {
	if a.count == 0 {
		a.minv, a.maxv = v, v
	} else {
		if v < a.minv {
			a.minv = v
		}
		if v > a.maxv {
			a.maxv = v
		}
	}
	a.sum += float64(v)
	a.count++
}

func (a *aggState) merge(b *aggState) {
	if b.count == 0 {
		return
	}
	if a.count == 0 {
		*a = *b
		return
	}
	a.sum += b.sum
	a.count += b.count
	if b.minv < a.minv {
		a.minv = b.minv
	}
	if b.maxv > a.maxv {
		a.maxv = b.maxv
	}
}

// GroupResult is the exact answer of a group-by aggregation query: the
// baseline LAQy's approximate answers are compared against, and the engine
// operation whose access pattern stratified sampling shares (Figure 8).
// Each group carries one aggState per requested value column: the index
// gives a group its dense id, and states holds its valueCols aggStates at
// id*valueCols.
type GroupResult struct {
	valueCols int
	index     sample.KeyIndex
	states    []aggState
}

// NumGroups returns the number of distinct groups.
func (r *GroupResult) NumGroups() int { return r.index.Len() }

// Keys returns the group keys in deterministic sorted order.
func (r *GroupResult) Keys() []GroupKey {
	ids := r.index.SortedIDs()
	out := make([]GroupKey, len(ids))
	for i, id := range ids {
		out[i] = r.index.Key(id)
	}
	return out
}

// Value returns the requested aggregate of the first value column for a
// group and whether the group exists.
func (r *GroupResult) Value(key GroupKey, kind approx.AggKind) (float64, bool) {
	return r.ValueAt(key, 0, kind)
}

// ValueAt returns the requested aggregate of the col-th value column for a
// group and whether the group exists.
func (r *GroupResult) ValueAt(key GroupKey, col int, kind approx.AggKind) (float64, bool) {
	id := r.index.Find(&key)
	if id < 0 || col < 0 || col >= r.valueCols {
		return 0, false
	}
	a := &r.states[int(id)*r.valueCols+col]
	if a.count == 0 {
		return 0, false
	}
	switch kind {
	case approx.Sum:
		return a.sum, true
	case approx.Count:
		return float64(a.count), true
	case approx.Avg:
		return a.sum / float64(a.count), true
	case approx.Min:
		return float64(a.minv), true
	case approx.Max:
		return float64(a.maxv), true
	default:
		return 0, false
	}
}

// groupByReserveChunk is how many new groups one memory reservation
// covers. Chunking keeps the budget mutex off the per-row path: the sink
// touches the budget once per chunk of distinct groups, not per row.
const groupByReserveChunk = 1024

// groupBytesPerEntry is what the budget charges for one group: a key of
// MaxQCS int64s, a slice header and the group's aggStates, and a hash-table
// entry's overhead — an upper bound on the index slots, the key words and
// the states slab a group costs.
func groupBytesPerEntry(valueCols int) int64 {
	return int64(8*sample.MaxQCS + 24 + 32*valueCols + 48)
}

// groupBySink is the per-worker exact aggregation state. Layout contract:
// the first groupWidth gathered columns are the grouping key, the
// remaining are the aggregated value columns.
type groupBySink struct {
	groupWidth int
	valueCols  int
	index      sample.KeyIndex
	states     []aggState // valueCols per group id

	// budget, when non-nil, is charged for every chunk of new groups;
	// headroom counts the groups remaining in the current chunk. A denial
	// is latched in err, after which consume is a no-op and runPipeline
	// aborts the run at the next morsel boundary.
	budget   *governor.QueryBudget
	headroom int
	err      error
}

func newGroupBySink(groupWidth, valueCols int, budget *governor.QueryBudget) *groupBySink {
	return &groupBySink{
		groupWidth: groupWidth,
		valueCols:  valueCols,
		index:      sample.NewKeyIndex(groupWidth),
		budget:     budget,
	}
}

// sinkErr implements failableSink.
func (s *groupBySink) sinkErr() error { return s.err }

// consume folds each gathered row into the worker's aggregation states.
//
//laqy:hot per-row sink on the scan path
func (s *groupBySink) consume(cols [][]int64, n int) {
	if s.err != nil {
		return
	}
	var key GroupKey
	for i := 0; i < n; i++ { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
		for c := 0; c < s.groupWidth; c++ {
			key[c] = cols[c][i]
		}
		id := s.index.Find(&key)
		if id < 0 {
			if s.budget != nil {
				if s.headroom == 0 {
					if err := s.budget.Reserve(int64(groupByReserveChunk) * groupBytesPerEntry(s.valueCols)); err != nil {
						s.err = err //laqy:allow hotalloc budget denial latch, at most once per run
						return
					}
					s.headroom = groupByReserveChunk
				}
				s.headroom--
			}
			id = s.index.Insert(&key)
			at := len(s.states)
			s.states = slices.Grow(s.states, s.valueCols)[:at+s.valueCols]
			clear(s.states[at:])
		}
		states := s.states[int(id)*s.valueCols:]
		for v := 0; v < s.valueCols; v++ {
			states[v].update(cols[s.groupWidth+v][i])
		}
	}
}

// mergeGroupBySinks folds per-worker partial aggregations into one result:
// the first sink's index and states become the result's, and every other
// sink's groups fold into them.
func mergeGroupBySinks(sinks []*groupBySink) *GroupResult {
	first := sinks[0]
	out := &GroupResult{valueCols: first.valueCols, index: first.index, states: first.states}
	w := out.valueCols
	for _, s := range sinks[1:] {
		for id := 0; id < s.index.Len(); id++ {
			key := s.index.Key(int32(id))
			src := s.states[id*w : (id+1)*w]
			did := out.index.Find(&key)
			if did < 0 {
				out.index.Insert(&key)
				out.states = append(out.states, src...)
				continue
			}
			dst := out.states[int(did)*w:]
			for v := range src {
				dst[v].merge(&src[v])
			}
		}
	}
	return out
}
