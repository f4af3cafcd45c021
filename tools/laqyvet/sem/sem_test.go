package sem_test

import (
	"path/filepath"
	"strings"
	"testing"

	"laqy/tools/laqyvet/analysis"
	"laqy/tools/laqyvet/analysistest"
	"laqy/tools/laqyvet/load"
	"laqy/tools/laqyvet/sem"
)

// buildFixture loads testdata/src/sem/a and builds its call graph once per
// test that needs it.
func buildFixture(t *testing.T) *sem.Program {
	t.Helper()
	dir := filepath.Join(analysistest.TestData(), "src", "sem", "a")
	pkgs, err := load.Packages(dir, []string{"."})
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	prog := &analysis.Program{
		Fset: pkg.Fset,
		Units: []*analysis.Unit{{
			Path:      pkg.Path,
			Name:      pkg.Name,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}},
	}
	return sem.Build(prog)
}

// fn finds the unique function whose qualified name ends in suffix.
func fn(t *testing.T, p *sem.Program, suffix string) *sem.Func {
	t.Helper()
	var found *sem.Func
	for _, f := range p.Funcs {
		if strings.HasSuffix(f.Name, suffix) {
			if found != nil {
				t.Fatalf("ambiguous function suffix %q (%s, %s)", suffix, found.Name, f.Name)
			}
			found = f
		}
	}
	if found == nil {
		t.Fatalf("no function with suffix %q", suffix)
	}
	return found
}

// edges filters a function's calls by kind.
func edges(f *sem.Func, kind sem.CallKind) []sem.Call {
	var out []sem.Call
	for _, c := range f.Calls {
		if c.Kind == kind {
			out = append(out, c)
		}
	}
	return out
}

func TestCallGraphStatic(t *testing.T) {
	p := buildFixture(t)
	leaf := fn(t, p, ".Leaf")
	st := edges(fn(t, p, ".Static"), sem.Static)
	if len(st) != 1 || st[0].Callee != leaf {
		t.Fatalf("Static: got %d static edges (callee match=%v), want 1 edge to Leaf", len(st), len(st) == 1 && st[0].Callee == leaf)
	}
}

func TestCallGraphLiteralCall(t *testing.T) {
	p := buildFixture(t)
	lc := edges(fn(t, p, ".LitCall"), sem.LiteralCall)
	if len(lc) != 1 || lc[0].Callee == nil || lc[0].Callee.Lit == nil {
		t.Fatalf("LitCall: want 1 LiteralCall edge to a literal node, got %+v", lc)
	}
	// The literal's own node owns the inner call.
	inner := edges(lc[0].Callee, sem.Static)
	if len(inner) != 1 || inner[0].Callee != fn(t, p, ".Leaf") {
		t.Fatalf("literal body: want a static edge to Leaf, got %+v", inner)
	}
	if !strings.Contains(lc[0].Callee.Name, "$1") {
		t.Fatalf("literal name %q should carry a $N suffix", lc[0].Callee.Name)
	}
}

func TestCallGraphEscapingLiteral(t *testing.T) {
	p := buildFixture(t)
	f := fn(t, p, ".EscapeLit")
	esc := edges(f, sem.Escape)
	if len(esc) != 1 || esc[0].Callee == nil || esc[0].Callee.Lit == nil {
		t.Fatalf("EscapeLit: want 1 Escape edge to the literal, got %+v", esc)
	}
	if dyn := edges(f, sem.Dynamic); len(dyn) != 1 || dyn[0].Callee != nil {
		t.Fatalf("EscapeLit: want 1 Dynamic edge with nil callee for f(), got %+v", dyn)
	}
	// Leaf stays reachable through the escape edge.
	reach := p.Reachable(f, nil)
	if !reach[fn(t, p, ".Leaf")] {
		t.Fatalf("EscapeLit: Leaf not reachable through the escaping literal")
	}
}

func TestCallGraphMethodValue(t *testing.T) {
	p := buildFixture(t)
	esc := edges(fn(t, p, ".MethodValue"), sem.Escape)
	if len(esc) != 1 || esc[0].Callee != fn(t, p, "M).Do") {
		t.Fatalf("MethodValue: want 1 Escape edge to (*M).Do, got %+v", esc)
	}
}

func TestCallGraphFuncValue(t *testing.T) {
	p := buildFixture(t)
	esc := edges(fn(t, p, ".FuncValue"), sem.Escape)
	if len(esc) != 1 || esc[0].Callee != fn(t, p, ".Leaf") {
		t.Fatalf("FuncValue: want 1 Escape edge to Leaf, got %+v", esc)
	}
}

func TestCallGraphSpawnAndDefer(t *testing.T) {
	p := buildFixture(t)
	sp := fn(t, p, ".Spawner")
	if len(sp.Spawns) != 1 || sp.Spawns[0].Target != fn(t, p, ".Leaf") {
		t.Fatalf("Spawner: want 1 spawn targeting Leaf, got %+v", sp.Spawns)
	}
	if e := edges(sp, sem.Spawned); len(e) != 1 {
		t.Fatalf("Spawner: want 1 Spawned call edge, got %d", len(e))
	}
	if e := edges(fn(t, p, ".DeferredCall"), sem.Deferred); len(e) != 1 || e[0].Callee != fn(t, p, ".Leaf") {
		t.Fatalf("DeferredCall: want 1 Deferred edge to Leaf, got %+v", e)
	}
	// Spawned edges are excludable: Leaf must drop out of the filtered set.
	reach := p.Reachable(sp, func(k sem.CallKind) bool { return k != sem.Spawned })
	if reach[fn(t, p, ".Leaf")] {
		t.Fatalf("Spawner: Leaf reachable despite excluding Spawned edges")
	}
}

func TestCallGraphDynamic(t *testing.T) {
	p := buildFixture(t)
	dyn := edges(fn(t, p, ".Dyn"), sem.Dynamic)
	if len(dyn) != 1 || dyn[0].Callee != nil {
		t.Fatalf("Dyn: want 1 Dynamic edge with nil callee, got %+v", dyn)
	}
}
