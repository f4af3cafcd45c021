// Package mergesync enforces the engine's merge discipline: worker
// goroutines own their partial state and shared state is only combined in
// the explicit merge phase (internal/engine/exec.go) after the workers are
// joined.
//
// The check is a conservative, package-scoped escape analysis over `go
// func` literals — not a race prover. Inside each goroutine body it flags
// writes (assignment, op-assignment, ++/--) whose target is a variable
// declared OUTSIDE the goroutine, unless one of the sanctioned patterns
// applies:
//
//   - worker-slot writes `shared[i] = ...` where the index is a parameter
//     of the goroutine literal: each worker owns a disjoint slot (the
//     per-worker error slots of the morsel driver and treeMergeStratified);
//   - writes lexically guarded by a Lock()/RLock() call earlier on the
//     statement path inside the goroutine, with no intervening Unlock;
//   - atomics: sync/atomic types are written through method calls, which
//     are not assignments and therefore never flagged;
//   - a `//laqy:allow mergesync` suppression on the write's line.
//
// Reads are deliberately not checked (morsel inputs are shared read-only);
// so are channel sends (synchronised by construction).
package mergesync

import (
	"go/ast"
	"go/token"
	"go/types"

	"laqy/tools/laqyvet/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "mergesync",
	Doc:  "flag unsynchronised writes to shared state from worker goroutines (merge-phase discipline)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		file := f
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := g.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			(&checker{pass: pass, file: file, lit: lit}).check()
			return true
		})
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	file *ast.File
	lit  *ast.FuncLit
}

// check walks the goroutine body looking for shared writes.
func (c *checker) check() {
	ast.Inspect(c.lit.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				c.checkWrite(st, lhs)
			}
		case *ast.IncDecStmt:
			c.checkWrite(st, st.X)
		}
		return true
	})
}

// checkWrite inspects one write target.
func (c *checker) checkWrite(stmt ast.Stmt, target ast.Expr) {
	switch t := target.(type) {
	case *ast.Ident:
		if t.Name == "_" {
			return
		}
		if obj := c.pass.TypesInfo.Uses[t]; obj != nil && c.isShared(obj) {
			c.report(stmt, t.Pos(),
				"write to shared variable %q from a worker goroutine outside the merge phase", t.Name)
		}

	case *ast.IndexExpr:
		root := rootIdent(t.X)
		if root == nil {
			return
		}
		if obj := c.pass.TypesInfo.Uses[root]; obj != nil && c.isShared(obj) {
			if c.isWorkerSlotIndex(t.Index) {
				return // disjoint per-worker slot, the sanctioned merge input
			}
			c.report(stmt, t.Pos(),
				"write to shared slice/map %q from a worker goroutine with a non-worker-slot index", root.Name)
		}

	case *ast.SelectorExpr:
		root := rootIdent(t.X)
		if root == nil {
			return
		}
		if obj := c.pass.TypesInfo.Uses[root]; obj != nil && c.isShared(obj) {
			c.report(stmt, t.Pos(),
				"write to field of shared variable %q from a worker goroutine outside the merge phase", root.Name)
		}

	case *ast.StarExpr:
		root := rootIdent(t.X)
		if root == nil {
			return
		}
		if obj := c.pass.TypesInfo.Uses[root]; obj != nil && c.isShared(obj) {
			c.report(stmt, t.Pos(),
				"write through shared pointer %q from a worker goroutine outside the merge phase", root.Name)
		}
	}
}

// report emits the diagnostic unless the line is suppressed or the write is
// lexically lock-guarded.
func (c *checker) report(stmt ast.Stmt, pos token.Pos, format string, args ...interface{}) {
	if analysis.LineAllowed(c.pass.Fset, c.file, pos, "mergesync") {
		return
	}
	if lockGuarded(c.lit.Body, stmt, false) {
		return
	}
	c.pass.Reportf(pos, format, args...)
}

// lockGuarded reports whether target sits in a region of the goroutine
// body where a Lock()/RLock() is lexically active: a Lock call earlier on
// the statement path with no intervening Unlock (a deferred Unlock keeps
// the region locked to the end, matching the usual idiom).
func lockGuarded(block *ast.BlockStmt, target ast.Stmt, locked bool) bool {
	for _, s := range block.List {
		switch v := s.(type) {
		case *ast.ExprStmt:
			if name, ok := syncCallName(v.X); ok {
				switch name {
				case "Lock", "RLock":
					locked = true
				case "Unlock", "RUnlock":
					locked = false
				}
			}
		case *ast.DeferStmt:
			// deferred Unlock: region stays locked until return — no change.
		default:
		}
		if s == target {
			return locked
		}
		if containsStmt(s, target) {
			// Recurse into any nested blocks of this statement with the
			// current lock state.
			found := false
			ast.Inspect(s, func(n ast.Node) bool {
				if found {
					return false
				}
				if b, ok := n.(*ast.BlockStmt); ok {
					// Only recurse into the outermost blocks containing the
					// target; lockGuarded handles deeper nesting itself.
					if b.Pos() <= target.Pos() && target.End() <= b.End() {
						found = true
						locked = lockGuarded(b, target, locked)
						return false
					}
				}
				return true
			})
			return locked
		}
	}
	return locked
}

// containsStmt reports whether outer's source range contains inner's.
func containsStmt(outer, inner ast.Stmt) bool {
	return outer.Pos() <= inner.Pos() && inner.End() <= outer.End()
}

// syncCallName matches `<recv>.Lock()`-shaped calls and returns the method
// name. Any no-argument call to a method named (R)Lock/(R)Unlock counts —
// deliberately lenient: over-recognising locks only suppresses findings.
func syncCallName(e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return sel.Sel.Name, true
	}
	return "", false
}

// rootIdent peels selectors, indexes, stars and parens down to the base
// identifier of an lvalue expression.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// isShared reports whether obj is a variable declared outside the
// goroutine literal (captured or package-level) — the goroutine does not
// own it.
func (c *checker) isShared(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return !(v.Pos() >= c.lit.Pos() && v.Pos() <= c.lit.End())
}

// isWorkerSlotIndex reports whether the index expression is (an arithmetic
// function of) parameters of the goroutine literal only — the worker-slot
// idiom `go func(w int) { partials[w] = ... }(w)`.
func (c *checker) isWorkerSlotIndex(idx ast.Expr) bool {
	found := false
	pure := true
	ast.Inspect(idx, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := c.pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		if c.isParam(obj) {
			found = true
		} else if _, isVar := obj.(*types.Var); isVar {
			pure = false // mixes in a non-parameter variable
		}
		return true
	})
	return found && pure
}

// isParam reports whether obj is one of the goroutine literal's parameters.
func (c *checker) isParam(obj types.Object) bool {
	if c.lit.Type.Params == nil {
		return false
	}
	for _, f := range c.lit.Type.Params.List {
		for _, name := range f.Names {
			if c.pass.TypesInfo.Defs[name] == obj {
				return true
			}
		}
	}
	return false
}
