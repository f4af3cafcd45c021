// Package analysis is a deliberately small, dependency-free re-creation of
// the golang.org/x/tools/go/analysis driver surface, built only on the
// standard library so the repository stays self-contained (the container
// that builds this repo has no module proxy access).
//
// It provides exactly what laqy-vet's analyzers need: an Analyzer
// descriptor, a per-package Pass carrying syntax + type information, and a
// Diagnostic stream. Analyzers written against this package follow the same
// shape as upstream go/analysis analyzers, so migrating to the real
// framework later is mechanical.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name is the analyzer's short identifier (used in -flags, suppression
	// comments and diagnostics).
	Name string
	// Doc is the one-paragraph description shown by `laqy-vet help`.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
	// NeedsTestFiles requests that the driver populate Pass.TestFiles with
	// the package's _test.go files (parsed, but not type-checked). Only
	// analyzers that are purely syntactic over test files should set this.
	NeedsTestFiles bool
	// ProgramScope requests a single whole-program pass instead of one
	// pass per package: the driver invokes Run exactly once per load with
	// Pass.Program populated and the per-package fields (Files, TestFiles,
	// Pkg, TypesInfo) left nil. Semantic analyzers that need a call graph
	// set this.
	ProgramScope bool
}

// Pass carries one package's worth of inputs to an Analyzer.Run and
// collects its diagnostics.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps positions for every file in the pass.
	Fset *token.FileSet
	// Files are the package's non-test source files, fully type-checked.
	Files []*ast.File
	// TestFiles are the package's _test.go files (internal and external),
	// parsed with comments but NOT type-checked. Nil unless the analyzer
	// sets NeedsTestFiles.
	TestFiles []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's recordings for Files.
	TypesInfo *types.Info
	// Program is the whole loaded package set. Only populated for
	// analyzers that set ProgramScope; nil on per-package passes.
	Program *Program
	// Report delivers one diagnostic. The driver wires this.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Pos
	// Message describes it. By convention messages start with the subject,
	// not the analyzer name (the driver prefixes the name).
	Message string
}

// LineAllowed reports whether the line containing pos — or the line
// immediately above it — carries a `//laqy:allow <name>` suppression
// comment for the named analyzer. This is the shared suppression grammar
// for all laqy-vet analyzers (documented in docs/STATIC_ANALYSIS.md).
func LineAllowed(fset *token.FileSet, file *ast.File, pos token.Pos, name string) bool {
	line := fset.Position(pos).Line
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			cl := fset.Position(c.Pos()).Line
			if cl != line && cl != line-1 {
				continue
			}
			if allowsAnalyzer(c.Text, name) {
				return true
			}
		}
	}
	return false
}

// FileAllowed reports whether any comment in the file is a file-scope
// `//laqy:allow <name>` suppression. Only honored by analyzers that
// explicitly document file-level suppression (rngsource in test files).
func FileAllowed(file *ast.File, name string) bool {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if allowsAnalyzer(c.Text, name) {
				return true
			}
		}
	}
	return false
}

// allowsAnalyzer matches the suppression grammar: a comment whose text,
// after the `//` marker, reads `laqy:allow <name> [rationale...]`. Multiple
// analyzers may be listed separated by commas: `//laqy:allow a,b reason`.
func allowsAnalyzer(text, name string) bool {
	const marker = "//laqy:allow "
	if len(text) < len(marker) || text[:len(marker)] != marker {
		return false
	}
	rest := text[len(marker):]
	// The analyzer list ends at the first space.
	end := len(rest)
	for i := 0; i < len(rest); i++ {
		if rest[i] == ' ' || rest[i] == '\t' {
			end = i
			break
		}
	}
	for _, part := range splitComma(rest[:end]) {
		if part == name {
			return true
		}
	}
	return false
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
