// Package laqyvet assembles the project's static-analysis suite: six
// analyzers enforcing the invariants the paper's correctness and
// performance claims rest on but the compiler cannot check — five
// per-package syntactic checks and one program-scope semantic check
// (goleak) built on the tools/laqyvet/sem call graph. See
// docs/STATIC_ANALYSIS.md for the full policy, the annotation grammar and
// the audit that decided which analyzers stay.
package laqyvet

import (
	"laqy/tools/laqyvet/analysis"
	"laqy/tools/laqyvet/ctxpoll"
	"laqy/tools/laqyvet/errchecklite"
	"laqy/tools/laqyvet/goleak"
	"laqy/tools/laqyvet/hotalloc"
	"laqy/tools/laqyvet/obscheck"
	"laqy/tools/laqyvet/rngsource"
)

// All returns the full analyzer suite in deterministic order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxpoll.Analyzer,
		errchecklite.Analyzer,
		goleak.Analyzer,
		hotalloc.Analyzer,
		obscheck.Analyzer,
		rngsource.Analyzer,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *analysis.Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
