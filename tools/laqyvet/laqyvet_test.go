package laqyvet

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestAnalyzerCatalog holds the three places an analyzer is named to each
// other: the registry (All), the `### <name> —` sections of
// docs/STATIC_ANALYSIS.md, and the `//laqy:allow <name>` suppressions in
// the module's Go files (testdata aside — golden packages suppress on
// purpose). A deleted analyzer's doc section or a suppression nobody reads
// any more is a red test, not a stale line.
func TestAnalyzerCatalog(t *testing.T) {
	root := filepath.Join("..", "..")
	registered := map[string]bool{}
	for _, a := range All() {
		registered[a.Name] = true
	}

	doc, err := os.ReadFile(filepath.Join(root, "docs", "STATIC_ANALYSIS.md"))
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^### (\S+) —`).FindAllStringSubmatch(string(doc), -1) {
		documented[m[1]] = true
	}

	var drift []string
	for name := range registered {
		if !documented[name] {
			drift = append(drift, name+": registered, no \"### "+name+" —\" section in docs/STATIC_ANALYSIS.md")
		}
	}
	for name := range documented {
		if !registered[name] {
			drift = append(drift, name+": has a section in docs/STATIC_ANALYSIS.md, not registered in All()")
		}
	}

	// Suppressions, under the grammar analysis.LineAllowed reads: a comment
	// that starts `//laqy:allow <name>[,<name>...]`.
	const marker = "//laqy:allow "
	fset := token.NewFileSet()
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		files++
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, marker) {
					continue
				}
				fields := strings.Fields(c.Text[len(marker):])
				if len(fields) == 0 {
					continue
				}
				for _, name := range strings.Split(fields[0], ",") {
					if !registered[name] {
						drift = append(drift, fset.Position(c.Pos()).String()+": "+marker+name+" names no registered analyzer")
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("only %d Go files walked from %s", files, root)
	}

	sort.Strings(drift)
	if len(drift) > 0 {
		t.Fatalf("analyzer registry, docs and suppressions disagree:\n  %s", strings.Join(drift, "\n  "))
	}
}
