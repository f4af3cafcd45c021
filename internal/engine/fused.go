package engine

import (
	"time"

	"laqy/internal/sample"
)

// fusedExpr is one aggregate expression resolved for the fused path.
type fusedExpr struct {
	left  []int64
	right []int64 // nil when op == 0 or the right operand is a literal
	lit   int64
	op    byte
}

// runFold is RunExact's fused body: the exact SUM and COUNT of each
// expression over the qualifying rows in one scan — aggregation folded into
// the scan itself, as a per-morsel body of the morsel driver (scan.go):
//
//   - zone-map-full morsels fold straight into the partial accumulators —
//     no selection vector at all;
//   - remaining morsels select and accumulate by direct index into the
//     operand vectors — no gather materialization.
//
// All of a fused morsel's time is Stats.Scan (there is no phase past the
// scan). Sums accumulate a per-morsel int64 partial converted to float64,
// the materializing reference scan's rounding, so single-worker folds are
// bitwise identical to the reference the equivalence suites pin them to.
// The result has no group when no row qualifies, and otherwise one, keyed
// by the empty key, whose states carry SUM and COUNT only: RunExact routes
// MIN and MAX, which the fold never computes, to the group-by sink.
// BenchmarkFusedAggregate measures the gap to materialize-then-aggregate.
func runFold(q *Query, exprs []ColumnExpr, workers int) (*GroupResult, Stats, error) {
	resolved, err := q.resolveExprs(exprs)
	if err != nil {
		return nil, Stats{}, err
	}
	plan, err := newMorselPlan(q)
	if err != nil {
		return nil, Stats{}, err
	}
	// Each segment's operands, bound to its vectors once here.
	segFes := make([][]fusedExpr, len(plan.segs))
	for i, s := range plan.segs {
		segFes[i] = make([]fusedExpr, len(resolved))
		for e, src := range bindExprs(resolved, s.seg) {
			segFes[i][e] = fusedExpr{left: src.left.vec, op: src.op, lit: src.lit}
			if src.op != 0 && !src.isLit {
				segFes[i][e].right = src.right.vec
			}
		}
	}

	sums := make([][]float64, workers) // worker w owns sums[w]
	stats, err := plan.run(q, workers, 0, 0, func(w int) (morselBody, func() error) {
		mySums := make([]float64, len(resolved))
		sums[w] = mySums
		acc := make([]int64, len(resolved))
		return func(ws *scanWorker, mo morsel, v morselVerdict) (int, time.Duration) {
			fes := segFes[mo.seg]
			var n int
			if v == morselFull {
				// Every row matches: fold the whole morsel.
				n = mo.Len()
				ws.st.MorselsFused++
				for e := range fes {
					acc[e] = sumExprRange(&fes[e], mo.Start, mo.End)
				}
			} else {
				ws.sel = plan.segs[mo.seg].filter.SelectInto(mo.Start, mo.End, ws.sel[:0])
				n = len(ws.sel)
				for e := range fes {
					acc[e] = sumExprSel(&fes[e], ws.sel)
				}
			}
			// One int64→float64 conversion per morsel per expression — the
			// same rounding structure as a materializing sum sink, which is
			// what keeps fused answers bitwise identical to the
			// materializing reference at workers=1.
			for e := range fes {
				mySums[e] += float64(acc[e])
			}
			return n, 0
		}, nil
	})
	if err != nil {
		return nil, Stats{}, err
	}

	// All expressions share the selection, so every count is the same.
	out := &GroupResult{index: sample.NewKeyIndex(0)}
	if stats.RowsSelected > 0 {
		out.index.Insert(&GroupKey{})
		out.states = make([]aggState, len(resolved))
		for e := range out.states {
			out.states[e].count = stats.RowsSelected
			for _, ws := range sums {
				if ws != nil {
					out.states[e].sum += ws[e]
				}
			}
		}
	}
	return out, stats, nil
}

// sumExprRange folds the expression over every row of [start, end). Literal
// operands fold algebraically (sum(a*c) = c·sum(a), sum(a±c) = sum(a) ± c·n);
// the wrapping int64 arithmetic is identical to the per-row loops.
//
//laqy:hot fused full-range aggregate fold
func sumExprRange(fe *fusedExpr, start, end int) int64 {
	n := int64(end - start)
	if fe.right != nil {
		left, right := fe.left, fe.right
		var s int64
		switch fe.op {
		case '*':
			for i := start; i < end; i++ { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
				s += left[i] * right[i]
			}
		case '+':
			for i := start; i < end; i++ { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
				s += left[i] + right[i]
			}
		default:
			for i := start; i < end; i++ { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
				s += left[i] - right[i]
			}
		}
		return s
	}
	var s int64
	left := fe.left
	for i := start; i < end; i++ { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
		s += left[i]
	}
	switch fe.op {
	case '*':
		return s * fe.lit
	case '+':
		return s + fe.lit*n
	case '-':
		return s - fe.lit*n
	default:
		return s
	}
}

// sumExprSel folds the expression over the selected rows by direct index —
// no gather buffer is materialized.
//
//laqy:hot fused selective aggregate fold
func sumExprSel(fe *fusedExpr, sel []int32) int64 {
	left := fe.left
	var s int64
	if fe.right != nil {
		right := fe.right
		switch fe.op {
		case '*':
			for _, idx := range sel { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
				s += left[idx] * right[idx]
			}
		case '+':
			for _, idx := range sel { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
				s += left[idx] + right[idx]
			}
		default:
			for _, idx := range sel { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
				s += left[idx] - right[idx]
			}
		}
		return s
	}
	for _, idx := range sel { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
		s += left[idx]
	}
	n := int64(len(sel))
	switch fe.op {
	case '*':
		return s * fe.lit
	case '+':
		return s + fe.lit*n
	case '-':
		return s - fe.lit*n
	default:
		return s
	}
}
