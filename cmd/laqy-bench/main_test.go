package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"laqy"
	"laqy/internal/bench"
	"laqy/internal/server"
)

// capture redirects stdout around fn.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		buf := make([]byte, 1<<20)
		var out []byte
		for {
			n, err := r.Read(buf)
			out = append(out, buf[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(out)
	}()
	errRun := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if errRun != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", errRun, out)
	}
	return out
}

func TestRunSelectedExperiments(t *testing.T) {
	cfg := bench.Config{Rows: 30_000, K: 32, Seed: 1, Workers: 2}
	out := capture(t, func() error { return run(cfg, options{exps: "table1,fig9,alpha"}) })
	for _, want := range []string{"== table1:", "== fig9a:", "== fig9b:", "== alpha:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// Unselected experiments must not run.
	for _, not := range []string{"== fig3:", "== fig12a:", "== headline:"} {
		if strings.Contains(out, not) {
			t.Errorf("output unexpectedly contains %q", not)
		}
	}
}

func TestRunSequenceExperiments(t *testing.T) {
	cfg := bench.Config{Rows: 20_000, K: 16, Seed: 1, Workers: 2}
	out := capture(t, func() error { return run(cfg, options{exps: "headline,fig11"}) })
	if !strings.Contains(out, "== headline:") || !strings.Contains(out, "== fig11:") {
		t.Errorf("sequence output incomplete:\n%s", out[:min(len(out), 500)])
	}
}

func TestRunWritesMetricsSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	cfg := bench.Config{Rows: 20_000, K: 16, Seed: 1, Workers: 2}
	out := capture(t, func() error { return run(cfg, options{exps: "reuse", metricsOut: path}) })
	if !strings.Contains(out, "metrics snapshot written to") {
		t.Errorf("output missing snapshot confirmation:\n%s", out[:min(len(out), 500)])
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The reuse sweep drives the sampler through misses and partial
	// reuses, so the snapshot must carry the sampler/store counters.
	for _, want := range []string{"laqy_sampler_online_total", "laqy_store_lookup_miss_total"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics snapshot missing %q", want)
		}
	}
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	cfg := bench.Config{Rows: 20_000, K: 16, Seed: 1, Workers: 2}
	capture(t, func() error { return run(cfg, options{exps: "table1,fig10", csvDir: dir}) })
	for _, f := range []string{"table1.csv", "fig10a.csv", "fig10b.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !strings.Contains(string(data), ",") {
			t.Fatalf("%s has no CSV content", f)
		}
	}
}

// TestDocListsEveryExperiment: the package doc's -exp list is the registry.
func TestDocListsEveryExperiment(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	_, after, _ := strings.Cut(string(src), "-exp selects")
	var doc []string
	for _, line := range strings.Split(after, "\n")[2:] {
		if !strings.HasPrefix(line, "//\t") {
			break
		}
		doc = append(doc, strings.Fields(line[3:])...)
	}
	if got, want := strings.Join(doc, " "), strings.Join(experimentIDs(), " "); got != want {
		t.Fatalf("package doc lists %q, registry has %q", got, want)
	}
}

// TestRunOnlyNeededSequences: an experiment runs only the sequence shapes
// it reads, and experiments reading the same shape share one run.
func TestRunOnlyNeededSequences(t *testing.T) {
	cfg := bench.Config{Rows: 20_000, K: 16, Seed: 1, Workers: 2}
	for exps, want := range map[string]int{"fig11": 1, "fig9,fig10,fig11": 2, "drift": 1, "table1": 0} {
		out := capture(t, func() error { return run(cfg, options{exps: exps}) })
		if got := strings.Count(out, "ran the "); got != want {
			t.Errorf("-exp %s ran %d sequences, want %d:\n%s", exps, got, want, out)
		}
	}
}

// TestRemoteBench drives a loopback laqyd: every request lands in the
// class table, and the latency summary rides in the notes.
func TestRemoteBench(t *testing.T) {
	db := laqy.Open(laqy.Config{DefaultK: 32, Seed: 1, Workers: 2})
	if err := db.LoadSSB(20_000, 1); err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{Tenants: []server.Tenant{{Name: "main", DB: db}}})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	tab, err := remoteBench(hs.URL, "", 2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, row := range tab.Rows {
		n, err := strconv.Atoi(row[1])
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if tab.ID != "remote" || total != 6 || len(tab.Notes) == 0 || !strings.Contains(tab.Notes[len(tab.Notes)-1], "latency p50=") {
		t.Fatalf("remote table: %+v", tab)
	}
}
