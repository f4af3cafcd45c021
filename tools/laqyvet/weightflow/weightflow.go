// Package weightflow is a call-graph taint analysis for the silently-
// biased-estimator failure mode docs/STATIC_ANALYSIS.md opens with: an
// aggregate computed from reservoir tuples that never passes through a
// scale-factor application answers for the *sample*, not the population,
// and nothing crashes.
//
// Sources are reads of sampled tuples: calls to
// (*sample.Reservoir).Tuple and Tuples. Scale applications are reads of the
// represented-population weight: (*sample.Reservoir).Weight,
// (*sample.Stratified).TotalWeight, and (*approx.Selection).Weight — the
// weight of a reservoir read through a tightening predicate. Sinks are constructions of
// approx.Estimate composite literals. Each property is computed per
// function and propagated over the package-set call graph (including
// escaping literals, so a callback handed to Stratified.ForEach carries
// its behaviour to the function that registers it). A function that
// builds an Estimate while tuple reads are reachable from it but no
// weight read is, gets a finding at the literal.
//
// The check is deliberately coarse in the safe direction: any reachable
// weight application clears the function (it cannot track which operand
// scaled what), but a path with *no* weight application anywhere cannot
// possibly have scaled — exactly the bug class. Estimator code with a
// genuinely unscaled value (order statistics like MIN/MAX, means that
// are scale-free by construction) documents itself with
// `//laqy:allow weightflow <rationale>` on the literal's line.
package weightflow

import (
	"go/ast"
	"go/types"

	"laqy/tools/laqyvet/analysis"
	"laqy/tools/laqyvet/sem"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name:         "weightflow",
	Doc:          "approx.Estimate values fed from reservoir/stratum tuples must pass through a scale-factor (Weight) application on some path",
	Run:          run,
	ProgramScope: true,
}

// Source and scale methods, by (*types.Func).FullName.
var (
	sourceMethods = map[string]bool{
		"(*laqy/internal/sample.Reservoir).Tuple":  true,
		"(*laqy/internal/sample.Reservoir).Tuples": true,
	}
	scaleMethods = map[string]bool{
		"(*laqy/internal/sample.Reservoir).Weight":       true,
		"(*laqy/internal/sample.Stratified).TotalWeight": true,
		"(*laqy/internal/approx.Selection).Weight":       true,
	}
)

func run(pass *analysis.Pass) error {
	if pass.Program == nil {
		return nil
	}
	sp := sem.Build(pass.Program)

	// Per-function direct bits.
	reads := make(map[*sem.Func]bool, len(sp.Funcs))
	scales := make(map[*sem.Func]bool, len(sp.Funcs))
	for _, fn := range sp.Funcs {
		for _, c := range fn.Calls {
			if c.Obj == nil {
				continue
			}
			name := c.Obj.FullName()
			if sourceMethods[name] {
				reads[fn] = true
			}
			if scaleMethods[name] {
				scales[fn] = true
			}
		}
	}

	// Propagate both bits over synchronous + escape edges to fixpoint:
	// reads[f] / scales[f] mean "reachable from f".
	for changed := true; changed; {
		changed = false
		for _, fn := range sp.Funcs {
			for _, c := range fn.Calls {
				if c.Callee == nil || c.Kind == sem.Spawned {
					continue
				}
				if reads[c.Callee] && !reads[fn] {
					reads[fn] = true
					changed = true
				}
				if scales[c.Callee] && !scales[fn] {
					scales[fn] = true
					changed = true
				}
			}
		}
	}

	// Sinks: Estimate composite literals in functions with tainted,
	// unscaled flows.
	for _, fn := range sp.Funcs {
		if fn.Unit == nil || fn.Unit.Name == "main" {
			continue
		}
		if !reads[fn] || scales[fn] {
			continue
		}
		body := fn.Body()
		if body == nil {
			continue
		}
		info := fn.Unit.TypesInfo
		ast.Inspect(body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				return false // separate node, judged by its own bits
			case *ast.CompositeLit:
				if !isEstimate(info, x) {
					return true
				}
				if pass.Program.Allowed(x.Pos(), "weightflow") {
					return true
				}
				pass.Reportf(x.Pos(),
					"approx.Estimate built on a path that reads reservoir tuples but never applies a scale factor (no Reservoir.Weight/Stratified.TotalWeight on any reachable path): the estimate answers for the sample, not the population; scale it or annotate //laqy:allow weightflow <why>")
			}
			return true
		})
	}
	return nil
}

// isEstimate matches a composite literal of type laqy/internal/approx.Estimate.
func isEstimate(info *types.Info, lit *ast.CompositeLit) bool {
	tv, ok := info.Types[lit]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "laqy/internal/approx" && named.Obj().Name() == "Estimate"
}
