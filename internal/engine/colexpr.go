package engine

import (
	"fmt"
	"strconv"
)

// ColumnExpr describes one value produced for the sink per qualifying row:
// either a plain column or a binary arithmetic expression over a column
// and a second column or literal — enough surface for SSB's computed
// aggregates (SUM(lo_extendedprice*lo_discount), SUM(lo_revenue -
// lo_supplycost)) without a general expression interpreter in the hot
// loop.
type ColumnExpr struct {
	// Name is the output name (used in sample schemas and results).
	Name string
	// Left is the left operand column.
	Left string
	// Op is 0 for a plain column reference, or one of '*', '+', '-'.
	Op byte
	// Right is the right operand column (when RightIsLit is false).
	Right string
	// RightLit is the literal right operand (when RightIsLit is true).
	RightLit int64
	// RightIsLit selects the literal right operand.
	RightIsLit bool
}

// Col wraps a plain column reference.
func Col(name string) ColumnExpr {
	return ColumnExpr{Name: name, Left: name}
}

// exprSource is the compiled form: operand sources plus the combine op.
type exprSource struct {
	left  columnSource
	op    byte
	right columnSource // unused when rightIsLit
	lit   int64
	isLit bool
}

// resolveExprs compiles column expressions against the query's tables.
func (q *Query) resolveExprs(exprs []ColumnExpr) ([]exprSource, error) {
	out := make([]exprSource, len(exprs))
	for i, e := range exprs {
		left, err := q.resolveColumns([]string{e.Left})
		if err != nil {
			return nil, err
		}
		out[i] = exprSource{left: left[0], op: e.Op, lit: e.RightLit, isLit: e.RightIsLit}
		if e.Op == 0 {
			continue
		}
		if e.Op != '*' && e.Op != '+' && e.Op != '-' {
			return nil, fmt.Errorf("engine: unsupported operator %q in column expression %q", e.Op, e.Name)
		}
		if !e.RightIsLit {
			right, err := q.resolveColumns([]string{e.Right})
			if err != nil {
				return nil, err
			}
			out[i].right = right[0]
		}
	}
	return out, nil
}

// gather materializes the expression for the selected rows into out.
// scratch is a caller-owned buffer of at least n elements used for the
// right operand (one per worker; no allocation in the hot loop).
//
//laqy:hot per-chunk inner loop of every scan
func (s *exprSource) gather(out, scratch []int64, sel []int32, dimRows [][]int32, n int) {
	gatherOperand(out, s.left, sel, dimRows, n)
	if s.op == 0 {
		return
	}
	if s.isLit {
		combineLit(out, s.op, s.lit, n)
		return
	}
	gatherOperand(scratch, s.right, sel, dimRows, n)
	switch s.op {
	case '*':
		for i := 0; i < n; i++ { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
			out[i] *= scratch[i]
		}
	case '+':
		for i := 0; i < n; i++ { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
			out[i] += scratch[i]
		}
	case '-':
		for i := 0; i < n; i++ { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
			out[i] -= scratch[i]
		}
	}
}

// gatherOperand copies one operand column for the selected rows; for
// dimension columns the row indices come from the owning join's dimRows.
//
//laqy:hot per-chunk inner loop of every scan
func gatherOperand(out []int64, src columnSource, sel []int32, dimRows [][]int32, n int) {
	if src.joinIdx < 0 {
		for i := 0; i < n; i++ { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
			out[i] = src.vec[sel[i]]
		}
		return
	}
	rows := dimRows[src.joinIdx]
	for i := 0; i < n; i++ { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
		out[i] = src.vec[rows[i]]
	}
}

// combineLit folds a literal operand into the gathered column in place.
//
//laqy:hot per-chunk inner loop of every scan
func combineLit(out []int64, op byte, lit int64, n int) {
	switch op {
	case '*':
		for i := 0; i < n; i++ { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
			out[i] *= lit
		}
	case '+':
		for i := 0; i < n; i++ { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
			out[i] += lit
		}
	case '-':
		for i := 0; i < n; i++ { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
			out[i] -= lit
		}
	}
}

// ExprName renders an expression's canonical column name: plain columns
// keep their name; computed columns render as "left<op>right" (column
// identifiers cannot contain operators, so the rendering is unambiguous
// and parseable back via ParseExprName).
func ExprName(e ColumnExpr) string {
	if e.Op == 0 {
		return e.Left
	}
	if e.RightIsLit {
		return fmt.Sprintf("%s%c%d", e.Left, e.Op, e.RightLit)
	}
	return fmt.Sprintf("%s%c%s", e.Left, e.Op, e.Right)
}

// ParseExprName parses a canonical expression name back into a ColumnExpr,
// so captured-column names stored in sample metadata are sufficient to
// re-materialize the expression for Δ-sampling and maintenance.
func ParseExprName(name string) ColumnExpr {
	for i := 0; i < len(name); i++ {
		switch name[i] {
		case '*', '+', '-':
			e := ColumnExpr{Name: name, Left: name[:i], Op: name[i]}
			right := name[i+1:]
			if lit, err := strconv.ParseInt(right, 10, 64); err == nil {
				e.RightLit, e.RightIsLit = lit, true
			} else {
				e.Right = right
			}
			return e
		}
	}
	return Col(name)
}

// ExprsFromNames maps schema column names (possibly canonical expression
// names) to column expressions.
func ExprsFromNames(names []string) []ColumnExpr {
	out := make([]ColumnExpr, len(names))
	for i, n := range names {
		out[i] = ParseExprName(n)
	}
	return out
}
