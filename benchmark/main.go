// Command benchmark is the repository's benchmark: five named workloads
// over the SSB data set, end-to-end metrics with regression bounds,
// per-layer metrics, a correctness gate and a traced run. It measures the
// program from outside, through the root laqy API and the /v1/query wire
// contract; see README.md in this directory.
//
//	bash benchmark/run.sh --workload explore-lazy --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -all -seed 1 -out set1.json
//	bash benchmark/run.sh -compare base.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	rows     int
	ops      int
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the data set and the op list")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the timed region (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1: fixed-work traced run reporting the per-layer metrics")
	flag.IntVar(&o.rows, "rows", 2_000_000, "lineorder rows")
	flag.IntVar(&o.ops, "ops", 0, "run exactly this many timed ops instead of -seconds (-trace 1 defaults to the workload's fixed count)")
	flag.StringVar(&o.out, "out", "", "append the full result to this JSON file; a traced run also writes <out>.trace.json")
	spec := flag.String("spec", "BENCHMARK.json", "the benchmark's definition (run.sh passes the one at the root of the checkout)")
	all := flag.Bool("all", false, "run every workload, each in a process of its own")
	compare := flag.Bool("compare", false, "compare two -out files: -compare base.json new.json")
	flag.Parse()

	err := loadCatalogue(*spec)
	if o.seconds == 0 {
		o.seconds = float64(cat.RunSeconds)
	}
	switch {
	case err != nil:
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("usage: -compare base.json new.json")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *all:
		err = runAll()
	default:
		var res *result
		if res, err = runWorkload(o); err == nil {
			err = res.report(o)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// result is the full outcome of one run, as written to -out.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Env       map[string]any     `json:"env"`
	OpsN      int                `json:"ops_n"`
	OpsSHA256 string             `json:"ops_sha256"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	Layers    []layerRow         `json:"layer_table,omitempty"`

	rec *recorder
}

// setUpsN is how many times a run sets the program up before it measures;
// setup_s is the median of these and of the set-ups made while measuring.
// The last set-ups are the ones measured on. Five, because the first is made
// on a cold heap and one in five is disturbed: the median of three still
// moved by a third between runs.
const setUpsN = 5

func runWorkload(o options) (*result, error) {
	info, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("-workload must be one of %s", strings.Join(workloadNames(), ", "))
	}
	p, err := buildPlan(info, o.rows, o.seed, min(runtime.NumCPU(), 2))
	if err != nil {
		return nil, err
	}
	// An untraced run is one pass. A traced run is two passes of the same
	// fixed work (one lap) on fresh set-ups, tracing off then on, so that the
	// traced numbers come with their own reference.
	traced := []bool{false}
	fixed := o.ops
	if o.trace == 1 {
		traced = []bool{false, true}
		if fixed == 0 {
			fixed = info.lapOps
		}
	}

	var setups []time.Duration
	var passes []*pass
	var e *env
	for i := 0; i < setUpsN; i++ {
		t := time.Now()
		if e, err = setUp(p, o.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t))
		j := i - (setUpsN - len(traced))
		if j < 0 {
			e.close()
			continue
		}
		r := &runner{p: p, e: e, seed: o.seed, seconds: o.seconds, fixed: fixed}
		if traced[j] {
			r.rec = newRecorder()
			e.db.SetTracing(true)
		}
		ps, err := r.run()
		e = r.e // ingest-maintain sets up afresh for every lap
		if err != nil {
			e.close()
			return nil, err
		}
		passes = append(passes, ps)
		setups = append(setups, ps.setups...)
		if j < len(traced)-1 {
			e.close()
		}
	}
	defer e.close()
	rss := peakRSSMB() // before verification: the oracle's copy of the data is not the program's memory

	ref, last := passes[0], passes[len(passes)-1]
	v, err := verify(p, e, o.seed, last)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	extra, err := offClock(p, e, last)
	if err != nil {
		return nil, err
	}
	extra["laqy.peak_rss_mb"] = rss
	extra["obs.trace_overhead_pct"] = 0
	if o.trace == 1 {
		extra["obs.trace_overhead_pct"] = 100 * (ratio(ms(shapeBalanced(last, 0.5)), ms(shapeBalanced(ref, 0.5))) - 1)
	}

	res := &result{
		Workload: info.name, Seed: o.seed, OpsN: p.opsN, OpsSHA256: p.opsSHA256, Traced: o.trace == 1,
		Env: map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
			"commit": commit(), "rows": o.rows, "clients": len(p.lists), "seconds": o.seconds, "fixed_ops": fixed, "laps": ref.laps,
		},
		EndToEnd: endToEndOf(ref, percentile(setups, 0.5)),
		PerLayer: perLayerOf(p, e, ref, last.rec, v, extra),
		Layers:   last.rec.layerTable(),
		rec:      last.rec,
	}
	if err := checkNames(cat.EndToEnd, res.EndToEnd); err != nil {
		return nil, err
	}
	if err := checkNames(cat.PerLayer, res.PerLayer); err != nil {
		return nil, err
	}
	res.Failures = append(append(res.Failures, last.failures...), v.failures...)
	if len(passes) > 1 {
		res.Failures = append(res.Failures, ref.failures...)
		res.Attempted += ref.laps * len(ref.opLat)
	}
	res.Attempted += last.laps*len(last.opLat) + v.checks
	if why := v.accuracyFailure(); why != "" {
		res.Failures = append(res.Failures, why)
	}
	res.Failures = append(res.Failures, v.claimFailures(p, ref.counters)...)
	res.Failed = len(res.Failures)
	res.Correct = len(res.Failures) == 0
	return res, nil
}

// commit names the tree being measured when it is a git checkout.
func commit() string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		// Look no further than this directory for a repository.
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// report writes -out, the trace, the human-readable lines and, last on
// standard output, the one-line JSON result.
func (res *result) report(o options) error {
	if o.out != "" {
		if err := appendRun(o.out, res); err != nil {
			return err
		}
		if res.rec != nil {
			if err := res.rec.writeFile(o.out + ".trace.json"); err != nil {
				return err
			}
		}
	}
	for i, f := range res.Failures {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "... and %d more\n", len(res.Failures)-10)
			break
		}
		fmt.Fprintln(os.Stderr, "FAIL", f)
	}
	if res.rec != nil {
		printLayerTable(os.Stderr, res.Layers)
	}
	defs, values := cat.EndToEnd, res.EndToEnd
	if res.Traced {
		defs, values = cat.PerLayer, res.PerLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for _, d := range defs {
		metrics[d.Name] = metric{values[d.Name], d.Unit}
		fmt.Fprintf(os.Stderr, "%-32s %16.4f %s\n", d.Name, values[d.Name], d.Unit)
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d checks failed", res.Workload, len(res.Failures), res.Attempted)
	}
	return nil
}

// runFile is the shape of an -out file: every run appended to it.
type runFile struct {
	Runs []*result `json:"runs"`
}

func readRuns(path string) (*runFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &runFile{}
	if err := json.Unmarshal(raw, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func appendRun(path string, res *result) error {
	f, err := readRuns(path)
	if errors.Is(err, os.ErrNotExist) {
		f = &runFile{}
	} else if err != nil {
		return err
	}
	f.Runs = append(f.Runs, res)
	raw, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// runAll runs each workload in a child process, so that peak memory is per
// workload, and prints the paper's headline ratio from the two explore runs.
func runAll() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "all" && f.Name != "workload" {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	opsPerS := map[string]float64{}
	var failed []string
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "== %s\n", w.name)
		cmd := exec.Command(self, append(args, "-workload="+w.name)...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		os.Stdout.Write(out)
		if err != nil {
			failed = append(failed, w.name)
			continue
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var last struct {
			Metrics map[string]struct{ Value float64 } `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			return fmt.Errorf("%s: result line: %w", w.name, err)
		}
		opsPerS[w.name] = last.Metrics["ops_per_s"].Value
	}
	if lazy, online := opsPerS["explore-lazy"], opsPerS["explore-online"]; online > 0 {
		fmt.Fprintf(os.Stderr, "reuse_speedup %.2f (explore-lazy %.1f ops/s / explore-online %.1f ops/s; informational)\n", lazy/online, lazy, online)
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed: %s", strings.Join(failed, ", "))
	}
	return nil
}
