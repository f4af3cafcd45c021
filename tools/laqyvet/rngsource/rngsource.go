// Package rngsource forbids standard-library randomness in favour of the
// project's inlined Lehmer generator.
//
// The paper's performance results depend on every sampling operator drawing
// from internal/rng (DESIGN.md §1: the admission-control loop keeps the
// generator state in a register; math/rand's locked global or interface
// indirection would dominate the loop). Just as importantly, its
// *statistical* results depend on reproducible, splittable streams —
// math/rand silently re-seeding from entropy would make experiment drift
// invisible. So the rule is absolute for library code:
//
//   - importing math/rand, math/rand/v2 or crypto/rand in a non-test file
//     is always a finding;
//   - importing them in a _test.go file is a finding unless the file
//     carries a `//laqy:allow rngsource` comment — the escape hatch for
//     oracle tests that deliberately compare against a second, independent
//     PRNG.
package rngsource

import (
	"go/ast"
	"strconv"
	"strings"

	"laqy/tools/laqyvet/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name:           "rngsource",
	Doc:            "forbid math/rand and crypto/rand: randomness must flow through internal/rng",
	Run:            run,
	NeedsTestFiles: true,
}

// forbidden reports whether an import path is a standard-library RNG.
func forbidden(path string) bool {
	return path == "math/rand" || strings.HasPrefix(path, "math/rand/") ||
		path == "crypto/rand"
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		checkFile(pass, f, false)
	}
	for _, f := range pass.TestFiles {
		checkFile(pass, f, true)
	}
	return nil
}

func checkFile(pass *analysis.Pass, f *ast.File, isTest bool) {
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil || !forbidden(path) {
			continue
		}
		if isTest && analysis.FileAllowed(f, "rngsource") {
			// Deliberate second-PRNG oracle comparison.
			continue
		}
		if isTest {
			pass.Reportf(imp.Pos(),
				"import of %s in a test file without //laqy:allow rngsource; use laqy/internal/rng, or annotate a deliberate oracle comparison", path)
			continue
		}
		pass.Reportf(imp.Pos(),
			"import of %s is forbidden: all randomness must flow through laqy/internal/rng", path)
	}
}
