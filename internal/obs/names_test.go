package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// expandBraces expands the catalog's `a_{b,c}_d` shorthand into every name
// it stands for.
func expandBraces(name string) []string {
	open := strings.IndexByte(name, '{')
	if open < 0 {
		return []string{name}
	}
	end := open + strings.IndexByte(name[open:], '}')
	var out []string
	for _, alt := range strings.Split(name[open+1:end], ",") {
		out = append(out, expandBraces(name[:open]+alt+name[end+1:])...)
	}
	return out
}

// TestMetricCatalogMatchesNames diffs the metric names declared in names.go
// against the catalog in docs/OBSERVABILITY.md, both ways: a metric added,
// renamed or removed in one place and not the other fails here. Families
// named by a prefix constant (MModePrefix, MGovDegradePrefix) appear in the
// catalog as `prefix<what>_total` and match on the prefix.
func TestMetricCatalogMatchesNames(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "names.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(name, "laqy_") {
				declared[name] = true
			}
		}
		return true
	})

	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	_, catalog, found := strings.Cut(string(doc), "## Metric catalog")
	if !found {
		t.Fatal("docs/OBSERVABILITY.md has no \"## Metric catalog\" section")
	}
	if next := strings.Index(catalog, "\n## "); next >= 0 {
		catalog = catalog[:next]
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("`(laqy_[a-z0-9_{},<>]+)`").FindAllStringSubmatch(catalog, -1) {
		for _, name := range expandBraces(m[1]) {
			if family, _, isFamily := strings.Cut(name, "<"); isFamily {
				name = family
			}
			documented[name] = true
		}
	}

	var drift []string
	for name := range declared {
		if !documented[name] {
			drift = append(drift, name+": in names.go, not in the catalog")
		}
	}
	for name := range documented {
		if !declared[name] {
			drift = append(drift, name+": in the catalog, not in names.go")
		}
	}
	sort.Strings(drift)
	if len(drift) > 0 {
		t.Fatalf("docs/OBSERVABILITY.md and internal/obs/names.go disagree:\n  %s", strings.Join(drift, "\n  "))
	}
	if len(declared) < 50 {
		t.Fatalf("only %d names parsed from names.go", len(declared))
	}
}
