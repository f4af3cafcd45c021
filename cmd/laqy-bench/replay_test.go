package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"laqy/internal/bench"
)

// TestGenerateSequences: -replay long|short renders the harness's own
// sequence steps as Q1-shaped SQL.
func TestGenerateSequences(t *testing.T) {
	cfg := bench.Config{Rows: 100_000, Seed: 1}
	for _, tc := range []struct {
		source string
		seq    bench.Sequence
		n      int
	}{{"long", bench.Long, 50}, {"short", bench.Short, 60}} {
		qs, err := bench.ReplayQueries(cfg, tc.source)
		if err != nil || len(qs) != tc.n {
			t.Fatalf("%s: %d queries, %v", tc.source, len(qs), err)
		}
		for i, s := range tc.seq.Steps(cfg) {
			if !strings.Contains(qs[i], fmt.Sprintf("BETWEEN %d AND %d", s.Lo, s.Hi)) || !strings.HasSuffix(qs[i], "APPROX") {
				t.Fatalf("%s query %d does not render step %+v: %s", tc.source, i, s, qs[i])
			}
		}
	}
	if _, err := bench.ReplayQueries(cfg, "weird"); err == nil {
		t.Fatal("a source that is neither a sequence nor a file must error")
	}
}

func TestReadWorkload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.sql")
	content := "# comment\nSELECT 1;\n\n  SELECT 2  \n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	qs, err := bench.ReplayQueries(bench.Config{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 || qs[0] != "SELECT 1" || qs[1] != "SELECT 2" {
		t.Fatalf("queries = %q", qs)
	}
	if _, err := bench.ReplayQueries(bench.Config{}, filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestRunGeneratedWorkload: a replay alone prints the replay table — reuse
// modes, the store line and the speedup over the no-reuse twin — and
// generates no experiment data.
func TestRunGeneratedWorkload(t *testing.T) {
	cfg := bench.Config{Rows: 30_000, K: 32, Seed: 1}
	out := capture(t, func() error { return run(cfg, options{replay: "long"}) })
	for _, want := range []string{"== replay: replay of 50 queries", "partial", "offline", "speedup", "sample store:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "generating SSB data") {
		t.Error("a replay-only run generated the experiment dataset")
	}
}

func TestRunEmit(t *testing.T) {
	cfg := bench.Config{Rows: 30_000, K: 32, Seed: 1}
	out := capture(t, func() error { return run(cfg, options{replay: "short", emit: true}) })
	if got := strings.Count(out, "APPROX;"); got != 60 {
		t.Fatalf("emitted %d statements, want 60", got)
	}
	if strings.Contains(out, "== ") {
		t.Fatal("-emit must only print the SQL")
	}
}

func TestRunFileWorkload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.sql")
	sqlText := `SELECT lo_quantity, SUM(lo_revenue) FROM lineorder WHERE lo_intkey BETWEEN 0 AND 4999 GROUP BY lo_quantity APPROX;
SELECT lo_quantity, SUM(lo_revenue) FROM lineorder WHERE lo_intkey BETWEEN 0 AND 9999 GROUP BY lo_quantity APPROX;
`
	if err := os.WriteFile(path, []byte(sqlText), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := bench.Config{Rows: 20_000, K: 32, Seed: 1}
	out := capture(t, func() error { return run(cfg, options{replay: path, csvDir: dir}) })
	if !strings.Contains(out, "online") || !strings.Contains(out, "partial") {
		t.Fatalf("expected online→partial progression:\n%s", out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "replay.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 3 {
		t.Fatalf("replay.csv has %d lines, want header + 2:\n%s", lines, data)
	}
}

func TestRunErrors(t *testing.T) {
	cfg := bench.Config{Rows: 5_000, K: 32, Seed: 1}
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.sql")
	bad := filepath.Join(dir, "bad.sql")
	if err := os.WriteFile(empty, []byte("# nothing\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte("not sql\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, opt := range map[string]options{
		"missing file":       {replay: filepath.Join(dir, "missing.sql")},
		"empty workload":     {replay: empty},
		"bad SQL":            {replay: bad},
		"unknown experiment": {exps: "fig99"},
	} {
		if err := run(cfg, opt); err == nil {
			t.Errorf("%s must error", name)
		}
	}
}
