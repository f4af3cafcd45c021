// Package bench is the experiment harness regenerating every table and
// figure of the LAQy paper's evaluation (Section 7), and replaying SQL
// workloads against the same generated data. Each experiment returns a
// Table whose rows mirror the series the paper plots; cmd/laqy-bench is the
// one command that prints them, and bench_test.go times the same case
// lists and runs as testing.B benchmarks.
//
// The paper runs at SSB SF1000 (≈6B fact rows) on a 48-thread server; this
// harness runs the same parameter sweeps at a configurable laptop scale.
// Absolute times differ; the shapes — who wins, by what factor, where the
// crossovers fall — are the reproduction target (see EXPERIMENTS.md).
package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"laqy/internal/obs"
	"laqy/internal/ssb"
	"laqy/internal/storage"
)

// Config scales the experiments.
type Config struct {
	// Rows is the lineorder row count (the paper's 6B at SF1000).
	Rows int
	// Seed drives data generation and sampling.
	Seed uint64
	// Workers is the engine parallelism (0 = all CPUs).
	Workers int
	// K is the per-stratum reservoir capacity (the paper uses 2000).
	K int
}

// Data is the generated dataset shared by the experiments.
type Data struct {
	Cfg Config
	SSB *ssb.Dataset
	// Lineorder is the fact table (alias into SSB).
	Lineorder *storage.Table
	// Obs, when non-nil, receives metrics from every sampler the
	// experiments create (cmd/laqy-bench's -metricsout flag). A nil
	// registry keeps all instruments as no-ops.
	Obs *obs.Registry
}

// NewData generates the SSB dataset at the configured scale.
func NewData(cfg Config) (*Data, error) {
	d, err := ssb.Generate(ssb.Config{LineorderRows: cfg.Rows, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return &Data{Cfg: cfg, SSB: d, Lineorder: d.Lineorder}, nil
}

// Table is a printable experiment result.
type Table struct {
	// ID is the paper artifact it regenerates, e.g. "fig6".
	ID string
	// Title describes the experiment.
	Title string
	// Header labels the columns.
	Header []string
	// Rows are the result rows.
	Rows [][]string
	// Notes are summary lines printed under the rows (not part of the CSV).
	Notes []string
}

// Append adds a row of stringified cells.
func (t *Table) Append(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table with aligned columns, two spaces apart.
func (t *Table) Fprint(w io.Writer) {
	_, _ = fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, row := range append([][]string{t.Header}, t.Rows...) {
		_, _ = fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	_ = tw.Flush()
	for _, note := range t.Notes {
		_, _ = fmt.Fprintln(w, note)
	}
	_, _ = fmt.Fprintln(w)
}

// Fcsv renders the table as CSV (header + rows), for plotting pipelines.
func (t *Table) Fcsv(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	return cw.WriteAll(t.Rows)
}

// ms renders a duration in milliseconds with two decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Nanoseconds())/1e6)
}

// pct renders a fraction as a percentage.
func pct(f float64) string {
	return fmt.Sprintf("%.2f%%", f*100)
}

// speedup renders base/x as a factor ("0.0x" when x is zero).
func speedup(base, x time.Duration) string {
	f := 0.0
	if x > 0 {
		f = float64(base) / float64(x)
	}
	return fmt.Sprintf("%.1fx", f)
}
