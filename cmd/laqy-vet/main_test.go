package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestSortFindingsNumeric(t *testing.T) {
	fs := []finding{
		{File: "b.go", Line: 2, Col: 1, Analyzer: "x"},
		{File: "a.go", Line: 10, Col: 1, Analyzer: "x"},
		{File: "a.go", Line: 9, Col: 20, Analyzer: "x"},
		{File: "a.go", Line: 9, Col: 3, Analyzer: "z"},
		{File: "a.go", Line: 9, Col: 3, Analyzer: "y"},
	}
	sortFindings(fs)
	if fs[0].Analyzer != "y" || fs[1].Analyzer != "z" {
		t.Fatalf("analyzer tiebreak broken: %+v", fs[:2])
	}
	// Lexicographic position sorting would place 9:20 after 10:1 and
	// 9:3 after 9:20; numeric sorting must not.
	if fs[2].Line != 9 || fs[2].Col != 20 {
		t.Fatalf("column sort not numeric: %+v", fs[2])
	}
	if fs[3].Line != 10 {
		t.Fatalf("line sort not numeric: %+v", fs[3])
	}
	if fs[4].File != "b.go" {
		t.Fatalf("file sort broken: %+v", fs[4])
	}
}

// TestRunList exercises the -list path: exactly the registered suite, one
// name per line, in order.
func TestRunList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errb.String())
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		name, _, _ := strings.Cut(line, " ")
		got = append(got, name)
	}
	const want = "ctxpoll errchecklite goleak hotalloc obscheck rngsource"
	if strings.Join(got, " ") != want {
		t.Fatalf("-list names = %q, want %q:\n%s", got, want, out.String())
	}
}

// TestRunSelfClean runs the full suite over this command's own package —
// the self-check that make lint also performs.
func TestRunSelfClean(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"."}, &out, &errb); code != 0 {
		t.Fatalf("laqy-vet over its own package exited %d:\n%s%s", code, out.String(), errb.String())
	}
}

// TestRunJSONFindings runs one analyzer over its golden package and checks
// the JSON stream: parseable, sorted, and carrying the suppression hint.
func TestRunJSONFindings(t *testing.T) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate test file")
	}
	dir := filepath.Join(filepath.Dir(file), "..", "..", "tools", "laqyvet", "testdata", "src", "goleak", "a")
	var out, errb bytes.Buffer
	code := run([]string{"-json", "-checks", "goleak", dir}, &out, &errb)
	if code != 1 {
		t.Fatalf("expected findings (exit 1), got %d:\n%s%s", code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	// One finding per `// want` marker of the golden files, so the golden
	// package can grow without this test going stale.
	goldens, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, g := range goldens {
		src, err := os.ReadFile(g)
		if err != nil {
			t.Fatal(err)
		}
		want += strings.Count(string(src), "// want `")
	}
	if want == 0 || len(lines) != want {
		t.Fatalf("expected %d findings (the golden package's want markers), got %d:\n%s", want, len(lines), out.String())
	}
	prevFile, prevLine := "", 0
	for _, l := range lines {
		var f finding
		if err := json.Unmarshal([]byte(l), &f); err != nil {
			t.Fatalf("unparseable finding %q: %v", l, err)
		}
		if f.Analyzer != "goleak" {
			t.Fatalf("wrong analyzer in %+v", f)
		}
		if f.Suppression != "//laqy:allow goleak <rationale>" {
			t.Fatalf("missing suppression hint in %+v", f)
		}
		if f.File == prevFile && f.Line < prevLine {
			t.Fatalf("findings not sorted by line within a file: %v", lines)
		}
		if f.File < prevFile {
			t.Fatalf("findings not sorted by file: %v", lines)
		}
		prevFile, prevLine = f.File, f.Line
	}
}
