// Command laqy-bench regenerates the tables and figures of the LAQy
// paper's evaluation (Section 7) at a configurable laptop scale, replays
// SQL workloads against the same generated data, and drives a running
// laqyd. Every table it prints is computed by internal/bench.
//
// Usage:
//
//	laqy-bench [-rows 2000000] [-k 2000] [-seed 1] [-workers 0] [-exp all]
//	laqy-bench -replay long|short|<file.sql> [-emit]
//	laqy-bench -url http://host:port [-clients 8] [-requests 50] [-tenant t]
//
// -exp selects a comma-separated set of experiments (-list prints them):
//
//	fig3 fig4 table1 fig6 fig8a fig8b fig8c alpha reuse drift fig9 fig10
//	fig11 fig12 fig13 fig14 fig15 headline
//
// Each prints the rows/series the paper plots (EXPERIMENTS.md compares
// them with the paper). Only the sequences a selected experiment reads are
// run, once each. -csvdir also writes every table as <id>.csv; -smoke
// shrinks the run to 50 000 rows and k=256; -metricsout writes the
// experiments' sampler metrics as a JSON snapshot, which CI uploads.
//
// -replay runs a SQL log — the long- or short-running sequence rendered as
// SQL, or a file with one statement per line ('#' comments; - for stdin) —
// against an SSB instance that keeps its sample store and a twin that
// clears it before every statement, and prints each query's reuse mode,
// rows scanned and selected and both times. -emit prints the SQL instead.
// With -replay, experiments run only when -exp is given.
//
// -url drives a running laqyd over HTTP (-clients connections, -requests
// each, optional -tenant) and prints the response-class mix and latency
// percentiles. See docs/SERVING.md.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"laqy/internal/bench"
	"laqy/internal/obs"
)

func main() {
	rows := flag.Int("rows", 2_000_000, "lineorder row count (the paper runs 6B at SF1000)")
	k := flag.Int("k", 2000, "per-stratum reservoir capacity")
	seed := flag.Uint64("seed", 1, "generator seed")
	workers := flag.Int("workers", 0, "engine parallelism (0 = all CPUs)")
	exps := flag.String("exp", "", "comma-separated experiments to run (default all, or none with -replay)")
	csvDir := flag.String("csvdir", "", "also write each table as <id>.csv into this directory")
	list := flag.Bool("list", false, "list available experiments and exit")
	smoke := flag.Bool("smoke", false, "CI smoke run: 50000 rows, k=256")
	metricsOut := flag.String("metricsout", "", "write a JSON metrics snapshot to this path after the experiments")
	replay := flag.String("replay", "", "replay a SQL log: long | short | <file> (- for stdin)")
	emitSQL := flag.Bool("emit", false, "with -replay: print the SQL and exit")
	url := flag.String("url", "", "benchmark a running laqyd at this base URL instead of in-process")
	clients := flag.Int("clients", 8, "remote mode: concurrent client connections")
	requests := flag.Int("requests", 50, "remote mode: requests per client")
	tenant := flag.String("tenant", "", "remote mode: tenant to query (empty = server default)")
	flag.Parse()

	cfg := bench.Config{Rows: *rows, K: *k, Seed: *seed, Workers: *workers}
	if *smoke {
		cfg.Rows, cfg.K = 50_000, 256
	}
	var err error
	switch {
	case *list:
		fmt.Println("experiments:", strings.Join(experimentIDs(), " "), "(or: all)")
	case *url != "":
		var t *bench.Table
		if t, err = remoteBench(strings.TrimRight(*url, "/"), *tenant, *clients, *requests, *seed); err == nil {
			err = emit(t, *csvDir)
		}
	default:
		err = run(cfg, options{exps: *exps, replay: *replay, emit: *emitSQL, csvDir: *csvDir, metricsOut: *metricsOut})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "laqy-bench:", err)
		os.Exit(1)
	}
}

// options are the in-process run's flags.
type options struct {
	exps, replay, csvDir, metricsOut string
	emit                             bool
}

// experiment is one -exp id and the tables it prints.
type experiment struct {
	id  string
	run func(h *harness) ([]*bench.Table, error)
}

// experiments is the registry behind -exp, -list and the package doc, in
// printing order.
var experiments = []experiment{
	{"fig3", figure(bench.Fig3)},
	{"fig4", figure(bench.Fig4)},
	{"table1", table(bench.Table1)},
	{"fig6", figure(bench.Fig6)},
	{"fig8a", figure(func(d *bench.Data) bench.Figure { return bench.Fig8(d)[0] })},
	{"fig8b", figure(func(d *bench.Data) bench.Figure { return bench.Fig8(d)[1] })},
	{"fig8c", figure(func(d *bench.Data) bench.Figure { return bench.Fig8(d)[2] })},
	{"alpha", table(bench.Alpha)},
	{"reuse", table(bench.ReuseSweep)},
	{"drift", each(bench.DriftTable, shape{bench.Drift, false})},
	{"fig9", each(bench.Fig9, shape{bench.Long, false}, shape{bench.Short, false})},
	{"fig10", each(bench.Fig10, shape{bench.Long, false}, shape{bench.Short, false})},
	{"fig11", each(bench.Fig11, shape{bench.Long, false})},
	{"fig12", each(bench.PerQueryTable, shape{bench.Long, false}, shape{bench.Long, true})},
	{"fig13", each(bench.PerQueryTable, shape{bench.Short, false}, shape{bench.Short, true})},
	{"fig14", each(bench.CumulativeTable, shape{bench.Long, false}, shape{bench.Long, true})},
	{"fig15", each(bench.CumulativeTable, shape{bench.Short, false}, shape{bench.Short, true})},
	{"headline", func(h *harness) ([]*bench.Table, error) {
		rs, err := h.runs(shape{bench.Long, false}, shape{bench.Long, true}, shape{bench.Short, false}, shape{bench.Short, true})
		return []*bench.Table{bench.Headline(rs)}, err
	}},
}

func experimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

func table(fn func(*bench.Data) (*bench.Table, error)) func(*harness) ([]*bench.Table, error) {
	return func(h *harness) ([]*bench.Table, error) {
		t, err := fn(h.d)
		return []*bench.Table{t}, err
	}
}

func figure(fn func(*bench.Data) bench.Figure) func(*harness) ([]*bench.Table, error) {
	return table(func(d *bench.Data) (*bench.Table, error) { return fn(d).Run() })
}

// each renders one table per sequence run, in the order given.
func each(fn func(*bench.SeqResult) *bench.Table, shapes ...shape) func(*harness) ([]*bench.Table, error) {
	return func(h *harness) ([]*bench.Table, error) {
		rs, err := h.runs(shapes...)
		var out []*bench.Table
		for _, r := range rs {
			out = append(out, fn(r))
		}
		return out, err
	}
}

// shape is one sequence run: the sequence and whether it runs Q2.
type shape struct {
	seq bench.Sequence
	q2  bool
}

// harness holds the generated data and the sequence runs made so far, so
// experiments reading the same run share it.
type harness struct {
	d    *bench.Data
	seqs map[shape]*bench.SeqResult
}

func (h *harness) runs(shapes ...shape) ([]*bench.SeqResult, error) {
	var out []*bench.SeqResult
	for _, s := range shapes {
		r, ok := h.seqs[s]
		if !ok {
			var err error
			if r, err = bench.RunSequence(h.d, s.seq, s.q2); err != nil {
				return nil, err
			}
			fmt.Printf("ran the %s sequence (%d queries)\n\n", r.Name(), len(r.Recs))
			h.seqs[s] = r
		}
		out = append(out, r)
	}
	return out, nil
}

// selected resolves -exp against the registry.
func selected(exps string) ([]experiment, error) {
	if exps == "all" {
		return experiments, nil
	}
	var out []experiment
	for _, id := range strings.Split(exps, ",") {
		id = strings.TrimSpace(strings.ToLower(id))
		i := slices.IndexFunc(experiments, func(e experiment) bool { return e.id == id })
		if i < 0 {
			return nil, fmt.Errorf("unknown experiment %q (see -list)", id)
		}
		out = append(out, experiments[i])
	}
	return out, nil
}

// emit prints a table and, with -csvdir, writes it as <id>.csv.
func emit(t *bench.Table, csvDir string) error {
	t.Fprint(os.Stdout)
	if csvDir == "" {
		return nil
	}
	var buf bytes.Buffer
	if err := t.Fcsv(&buf); err != nil {
		return err
	}
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(csvDir, t.ID+".csv"), buf.Bytes(), 0o644)
}

func run(cfg bench.Config, opt options) error {
	var queries []string
	if opt.replay != "" {
		var err error
		if queries, err = bench.ReplayQueries(cfg, opt.replay); err != nil || opt.emit {
			for _, q := range queries {
				fmt.Println(q + ";")
			}
			return err
		}
	} else if opt.exps == "" {
		opt.exps = "all"
	}
	if opt.exps != "" {
		if err := runExperiments(cfg, opt); err != nil {
			return err
		}
	}
	if queries == nil {
		return nil
	}
	fmt.Printf("replaying %d queries over %d lineorder rows (seed %d), with and without reuse...\n\n",
		len(queries), cfg.Rows, cfg.Seed)
	t, err := bench.Replay(cfg, queries)
	if err != nil {
		return err
	}
	return emit(t, opt.csvDir)
}

func runExperiments(cfg bench.Config, opt options) error {
	exps, err := selected(opt.exps)
	if err != nil {
		return err
	}
	fmt.Printf("generating SSB data: %d lineorder rows (seed %d)...\n\n", cfg.Rows, cfg.Seed)
	d, err := bench.NewData(cfg)
	if err != nil {
		return err
	}
	if opt.metricsOut != "" {
		d.Obs = obs.NewRegistry()
	}
	h := &harness{d: d, seqs: map[shape]*bench.SeqResult{}}
	for _, e := range exps {
		tabs, err := e.run(h)
		if err != nil {
			return err
		}
		for _, t := range tabs {
			if err := emit(t, opt.csvDir); err != nil {
				return err
			}
		}
	}
	if opt.metricsOut == "" {
		return nil
	}
	var buf bytes.Buffer
	if err := d.Obs.Snapshot().WriteJSON(&buf); err != nil {
		return err
	}
	fmt.Printf("metrics snapshot written to %s\n", opt.metricsOut)
	return os.WriteFile(opt.metricsOut, buf.Bytes(), 0o644)
}
