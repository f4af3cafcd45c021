package bench

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"laqy"
)

// ReplayQueries returns the statements of a replay source: "long" or
// "short" renders that sequence as Q1-shaped SQL; anything else names a
// workload file ("-" for stdin) with one statement per line, blank lines
// and '#' comments skipped and a trailing ';' optional.
func ReplayQueries(cfg Config, source string) ([]string, error) {
	var out []string
	if seq, ok := map[string]Sequence{"long": Long, "short": Short}[source]; ok {
		for _, s := range seq.Steps(cfg) {
			out = append(out, fmt.Sprintf(
				"SELECT lo_orderdate, SUM(lo_revenue) FROM lineorder WHERE lo_intkey BETWEEN %d AND %d GROUP BY lo_orderdate APPROX",
				s.Lo, s.Hi))
		}
		return out, nil
	}
	var r io.Reader = os.Stdin
	if source != "-" {
		f, err := os.Open(source)
		if err != nil {
			return nil, err
		}
		defer f.Close() //laqy:allow errchecklite read-only file; Close cannot lose data
		r = f
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" && !strings.HasPrefix(line, "#") {
			out = append(out, strings.TrimSuffix(line, ";"))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: empty workload %s", source)
	}
	return out, nil
}

// Replay runs queries in order against an SSB instance whose sample store
// persists across the log — the paper's exploratory-workload methodology
// applied to any query log — and against a twin whose store is cleared
// before every statement (no reuse). Each row is one query: LAQy's mode,
// rows scanned and selected, and both times. The notes carry the store's
// final reuse counters and the cumulative speedup.
func Replay(cfg Config, queries []string) (*Table, error) {
	open := func() (*laqy.DB, error) {
		db := laqy.Open(laqy.Config{DefaultK: cfg.K, Seed: cfg.Seed, Workers: cfg.Workers})
		return db, db.LoadSSB(cfg.Rows, cfg.Seed)
	}
	db, err := open()
	if err != nil {
		return nil, err
	}
	twin, err := open()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "replay",
		Title:  fmt.Sprintf("replay of %d queries: LAQy vs no reuse", len(queries)),
		Header: []string{"query", "mode", "scanned", "selected", "laqy ms", "no-reuse ms"},
	}
	var lazyTotal, onlineTotal time.Duration
	for i, q := range queries {
		res, err := db.Query(q)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		twin.ClearSamples()
		ores, err := twin.Query(q)
		if err != nil {
			return nil, fmt.Errorf("query %d (no reuse): %w", i, err)
		}
		lazyTotal += res.Stats.Total
		onlineTotal += ores.Stats.Total
		t.Append(fmt.Sprint(i), res.Mode.String(), fmt.Sprint(res.Stats.RowsScanned),
			fmt.Sprint(res.Stats.RowsSelected), ms(res.Stats.Total), ms(ores.Stats.Total))
	}
	st := db.SampleStoreStats()
	t.Notes = append(t.Notes,
		fmt.Sprintf("sample store: %d samples (%d bytes); reuse: %d full, %d partial, %d misses",
			st.Samples, st.Bytes, st.FullReuses, st.PartialReuses, st.Misses),
		fmt.Sprintf("cumulative: laqy %s ms, no reuse %s ms, speedup %s",
			ms(lazyTotal), ms(onlineTotal), speedup(onlineTotal, lazyTotal)))
	return t, nil
}
