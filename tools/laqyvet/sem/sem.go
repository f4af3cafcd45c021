// Package sem is the semantic layer beneath laqy-vet's one
// interprocedural analyzer (goleak): a package-set call graph with
// conservative handling of function literals and method values. Like the
// rest of the framework it is stdlib-only — no golang.org/x/tools.
//
// The call graph is deliberately conservative rather than precise:
//
//   - direct calls of declared functions and methods resolve statically
//     through the type-checker's object resolution;
//   - a function literal called at its creation site (`f := func(){...}();`
//     or `go func(){...}()`) resolves to the literal;
//   - a literal or method value that *escapes* — stored in a variable,
//     passed as an argument, returned — gets an Escape edge from the
//     function that creates it, i.e. it is assumed callable wherever the
//     creator hands it; reachability flows through Escape edges exactly
//     like through calls;
//   - calls through function-typed values whose target the above cannot
//     name are recorded as Dynamic with a nil callee; goleak makes an
//     unresolvable spawn a finding.
//
// Spawn edges (`go` statements) are recorded separately from Calls: a
// nested goroutine is its own lifecycle, so reachability from a spawned
// body must be able to leave them out.
package sem

import (
	"fmt"
	"go/ast"
	"go/types"

	"laqy/tools/laqyvet/analysis"
)

// CallKind classifies one call-graph edge.
type CallKind int

const (
	// Static is a direct call of a declared function or method.
	Static CallKind = iota
	// LiteralCall is a function literal invoked at its creation site.
	LiteralCall
	// Escape is the conservative edge for a literal or method value that
	// leaves the creating function (assigned, passed, returned): it may be
	// invoked from wherever it escapes to, so reachability flows through it.
	Escape
	// Deferred is a `defer` call (runs on the same goroutine).
	Deferred
	// Spawned is a `go` call target (runs on another goroutine).
	Spawned
	// Dynamic is a call through a function value the graph cannot resolve.
	Dynamic
)

// Call is one outgoing call-graph edge of a function.
type Call struct {
	// Callee is the target when it is part of the program; nil for
	// external (other-module/stdlib) and Dynamic targets.
	Callee *Func
	// Kind classifies the edge.
	Kind CallKind
}

// Spawn is one `go` statement with its resolved target.
type Spawn struct {
	// Stmt is the go statement.
	Stmt *ast.GoStmt
	// Target is the spawned function (literal or declared) when it
	// resolves statically; nil for dynamic spawns.
	Target *Func
}

// Func is one node of the call graph: a declared function/method or a
// function literal.
type Func struct {
	// Name qualifies the function for diagnostics:
	// "laqy/internal/store.(*Store).Put", with "$1", "$2", ... appended
	// for literals in creation order within their parent.
	Name string
	// Decl is the declaration; nil for literals.
	Decl *ast.FuncDecl
	// Lit is the literal; nil for declared functions.
	Lit *ast.FuncLit
	// Unit is the package the function lives in.
	Unit *analysis.Unit
	// Calls are the outgoing edges, in source order.
	Calls []Call
	// Spawns are the function's go statements, in source order.
	Spawns []Spawn
}

// Body returns the function's body block (nil for bodyless declarations,
// e.g. assembly stubs).
func (f *Func) Body() *ast.BlockStmt {
	if f.Lit != nil {
		return f.Lit.Body
	}
	if f.Decl != nil {
		return f.Decl.Body
	}
	return nil
}

// Params returns the function's parameter list (may be nil).
func (f *Func) Params() *ast.FieldList {
	if f.Lit != nil {
		return f.Lit.Type.Params
	}
	if f.Decl != nil {
		return f.Decl.Type.Params
	}
	return nil
}

// Program is the built call graph over one analysis.Program.
type Program struct {
	// Funcs lists every declared function and literal in deterministic
	// order: units by path, files in list order, declarations in source
	// order, literals in creation order within their parent.
	Funcs []*Func
	byObj map[*types.Func]*Func
	byLit map[*ast.FuncLit]*Func
}

// Build indexes every function of the program and resolves its call and
// spawn edges.
func Build(prog *analysis.Program) *Program {
	p := &Program{
		byObj: make(map[*types.Func]*Func),
		byLit: make(map[*ast.FuncLit]*Func),
	}
	// Pass 1: index declared functions, then their literals (so literal
	// names can reference the parent's).
	for _, u := range prog.Units {
		for _, file := range u.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn := &Func{Decl: d, Unit: u}
					if obj, ok := u.TypesInfo.Defs[d.Name].(*types.Func); ok {
						fn.Name = obj.FullName()
						p.byObj[obj] = fn
					} else {
						fn.Name = u.Path + "." + d.Name.Name
					}
					p.Funcs = append(p.Funcs, fn)
					if d.Body != nil {
						p.indexLits(fn, d.Body)
					}
				case *ast.GenDecl:
					// Literals in package-level initializers (var f =
					// func(){...}) have no enclosing function.
					root := &Func{Name: u.Path + ".init", Unit: u}
					p.indexLits(root, d)
				}
			}
		}
	}
	// Pass 2: resolve edges.
	for _, fn := range p.Funcs {
		p.resolveEdges(fn)
	}
	return p
}

// indexLits registers every function literal under n (excluding n itself)
// as a Func named after its lexically enclosing function.
func (p *Program) indexLits(parent *Func, n ast.Node) {
	if n == nil {
		return
	}
	count := 0
	var walk func(node ast.Node, par *Func)
	walk = func(node ast.Node, par *Func) {
		ast.Inspect(node, func(x ast.Node) bool {
			lit, ok := x.(*ast.FuncLit)
			if !ok || x == node {
				return true
			}
			count++
			fn := &Func{
				Name: fmt.Sprintf("%s$%d", par.Name, count),
				Lit:  lit,
				Unit: par.Unit,
			}
			p.Funcs = append(p.Funcs, fn)
			p.byLit[lit] = fn
			walk(lit.Body, fn)
			return false // nested literals handled by the recursive walk
		})
	}
	walk(n, parent)
}

// resolveEdges walks fn's body — skipping nested literal bodies, which are
// their own nodes — and records call, escape, and spawn edges.
func (p *Program) resolveEdges(fn *Func) {
	body := fn.Body()
	if body == nil {
		return
	}
	info := fn.Unit.TypesInfo
	// funExprs marks expressions in call position, so the value-reference
	// walk below does not double-count a direct call's Fun as an escaping
	// method value.
	funExprs := make(map[ast.Expr]bool)

	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			// A literal in non-call position escapes: conservative edge,
			// then stop — the literal's own node owns its body.
			if !funExprs[x] {
				fn.Calls = append(fn.Calls, Call{Callee: p.byLit[x], Kind: Escape})
			}
			return false
		case *ast.GoStmt:
			c, _ := p.resolveCall(info, x.Call, funExprs)
			c.Kind = Spawned
			fn.Calls = append(fn.Calls, c)
			fn.Spawns = append(fn.Spawns, Spawn{Stmt: x, Target: c.Callee})
			// Walk arguments (not the Fun, already resolved); a literal
			// passed as an argument to the spawned call still escapes.
			for _, arg := range x.Call.Args {
				ast.Inspect(arg, visit)
			}
			return false
		case *ast.DeferStmt:
			c, _ := p.resolveCall(info, x.Call, funExprs)
			c.Kind = Deferred
			fn.Calls = append(fn.Calls, c)
			for _, arg := range x.Call.Args {
				ast.Inspect(arg, visit)
			}
			return false
		case *ast.CallExpr:
			if c, ok := p.resolveCall(info, x, funExprs); ok {
				fn.Calls = append(fn.Calls, c)
			}
			return true
		case *ast.SelectorExpr:
			if !funExprs[x] {
				if obj, ok := info.Uses[x.Sel].(*types.Func); ok {
					// Method value (or method expression): assumed
					// callable wherever it flows.
					fn.Calls = append(fn.Calls, Call{Callee: p.byObj[obj], Kind: Escape})
				}
			}
			// Walk only the receiver side: visiting Sel as a bare Ident
			// would double-count every method/qualified call as an
			// escaping method value.
			ast.Inspect(x.X, visit)
			return false
		case *ast.Ident:
			if !funExprs[x] {
				if obj, ok := info.Uses[x].(*types.Func); ok {
					fn.Calls = append(fn.Calls, Call{Callee: p.byObj[obj], Kind: Escape})
				}
			}
			return true
		}
		return true
	}
	ast.Inspect(body, visit)
}

// resolveCall classifies one call expression and marks its Fun so the
// value-reference walk skips it. ok is false for builtins and type
// conversions, which are not call-graph edges.
func (p *Program) resolveCall(info *types.Info, call *ast.CallExpr, funExprs map[ast.Expr]bool) (c Call, ok bool) {
	fun := unparen(call.Fun)
	funExprs[fun] = true
	switch f := fun.(type) {
	case *ast.FuncLit:
		return Call{Callee: p.byLit[f], Kind: LiteralCall}, true
	case *ast.Ident:
		switch obj := info.Uses[f].(type) {
		case *types.Func:
			return Call{Callee: p.byObj[obj], Kind: Static}, true
		case *types.Builtin, *types.TypeName:
			return Call{Kind: Dynamic}, false
		}
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[f.Sel].(*types.Func); ok {
			return Call{Callee: p.byObj[obj], Kind: Static}, true
		}
	}
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return Call{Kind: Dynamic}, false // conversion through a type expression
	}
	return Call{Kind: Dynamic}, true
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

// Reachable returns the set of program functions reachable from root over
// the given edge kinds (all kinds when kinds is nil), including root.
func (p *Program) Reachable(root *Func, kinds func(CallKind) bool) map[*Func]bool {
	seen := map[*Func]bool{root: true}
	stack := []*Func{root}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range f.Calls {
			if c.Callee == nil || seen[c.Callee] {
				continue
			}
			if kinds != nil && !kinds(c.Kind) {
				continue
			}
			seen[c.Callee] = true
			stack = append(stack, c.Callee)
		}
	}
	return seen
}
