// Command laqy-shell is an interactive SQL shell over an in-memory SSB
// dataset, demonstrating LAQy's lazy approximate query processing.
//
// Usage:
//
//	laqy-shell [-rows 1000000] [-seed 1] [-k 1024]
//
// Append APPROX to any aggregation query to run it on a sample; re-run it
// with a wider BETWEEN range on lo_intkey and watch the mode switch from
// "online" to "partial" (Δ-sample only) to "offline" (no scan at all).
//
// Meta commands: \tables, \stats, \samples, \metrics, \trace on|off,
// \timeout <dur>, \governor, \serve <addr>|stop, \shards, \clear, \save,
// \load, \help, \q.
// EXPLAIN <query> prints the plan; EXPLAIN ANALYZE <query> executes it
// and prints the annotated phase trace.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"laqy"
	"laqy/internal/server"
	"laqy/internal/shard"
)

// queryTimeout is the session deadline set by \timeout; zero means none.
// Under a deadline the governor degrades queries (exact → approximate →
// stale stored serve) instead of letting them run long — see
// docs/GOVERNANCE.md.
var queryTimeout time.Duration

// srv is the daemon started by \serve (nil when not serving). It shares
// the shell's DB: queries served over HTTP and queries typed at the
// prompt reuse the same sample store.
var srv *server.Server

// shardPool is the distributed-segments pool installed by -shards (nil
// when the shell runs purely locally); \shards inspects it.
var shardPool *shard.Pool

func main() {
	rows := flag.Int("rows", 1_000_000, "lineorder rows to generate")
	seed := flag.Uint64("seed", 1, "generator seed")
	k := flag.Int("k", 1024, "default per-stratum reservoir capacity")
	command := flag.String("c", "", "execute one statement and exit (non-interactive)")
	shards := flag.String("shards", "", "comma-separated name=url shard nodes; fan APPROX builds out to them")
	flag.Parse()

	db := laqy.Open(laqy.Config{DefaultK: *k, Seed: *seed})
	if *shards != "" {
		nodes, err := server.ParseShards(*shards)
		if err != nil {
			fmt.Fprintln(os.Stderr, "laqy-shell:", err)
			os.Exit(2)
		}
		shardPool = shard.NewPool(nodes, shard.Options{}, nil)
		db.SetSegmentPlanner(shard.NewPlanner(shardPool))
	}
	if *command == "" {
		fmt.Printf("loading SSB: %d lineorder rows...\n", *rows)
	}
	if err := db.LoadSSB(*rows, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "laqy-shell:", err)
		os.Exit(1)
	}
	if *command != "" {
		execute(db, strings.TrimSuffix(strings.TrimSpace(*command), ";"))
		return
	}
	fmt.Println("ready. Try:")
	fmt.Println(`  SELECT d_year, SUM(lo_revenue) FROM lineorder, date
    WHERE lo_orderdate = d_datekey AND lo_intkey BETWEEN 0 AND 100000
    GROUP BY d_year APPROX`)
	fmt.Println(`type \help for meta commands.`)

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := func() {
		if pending.Len() == 0 {
			fmt.Print("laqy> ")
		} else {
			fmt.Print("  ... ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if strings.HasPrefix(line, `\`) {
			if !meta(db, line) {
				break // \q: fall through to the serve drain below
			}
			prompt()
			continue
		}
		if line != "" {
			pending.WriteString(line)
			pending.WriteByte(' ')
		}
		// Execute on a ; terminator or a blank line after content.
		text := strings.TrimSpace(pending.String())
		if text != "" && (strings.HasSuffix(text, ";") || line == "") {
			pending.Reset()
			execute(db, strings.TrimSuffix(text, ";"))
		}
		prompt()
	}
	// EOF with a \serve daemon still running: drain it before exiting so
	// in-flight HTTP queries finish and the store save (if any) lands.
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
}

// meta handles backslash commands; returns false to exit.
func meta(db *laqy.DB, line string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case `\d`, `\describe`:
		if len(fields) < 2 {
			fmt.Println(`  usage: \d <table>`)
			return true
		}
		cols, err := db.Describe(fields[1])
		if err != nil {
			fmt.Println("  error:", err)
			return true
		}
		for _, c := range cols {
			if c.DictSize > 0 {
				fmt.Printf("  %-20s %-8s (%d distinct values)\n", c.Name, c.Type, c.DictSize)
			} else {
				fmt.Printf("  %-20s %s\n", c.Name, c.Type)
			}
		}
		return true
	}
	switch fields[0] {
	case `\q`, `\quit`, `\exit`:
		return false
	case `\tables`:
		for _, name := range db.Tables() {
			n, _ := db.NumRows(name)
			fmt.Printf("  %-10s %10d rows\n", name, n)
		}
	case `\stats`:
		s := db.SampleStoreStats()
		fmt.Printf("  samples: %d (%d bytes)\n", s.Samples, s.Bytes)
		fmt.Printf("  reuse: %d full, %d partial, %d misses, %d evictions\n",
			s.FullReuses, s.PartialReuses, s.Misses, s.Evictions)
	case `\samples`:
		infos := db.Samples()
		if len(infos) == 0 {
			fmt.Println("  (no cached samples)")
		}
		for i, s := range infos {
			fmt.Printf("  [%d] %s\n      predicate: %s\n      QCS=%v QVS=%v k=%d strata=%d rows=%d weight=%.0f (%d bytes)\n",
				i, s.Input, s.Predicate, s.QCS, s.QVS, s.K, s.Strata, s.Rows, s.Weight, s.Bytes)
		}
	case `\metrics`:
		m := db.Metrics()
		names := make([]string, 0, len(m.Counters))
		for name := range m.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-44s %d\n", name, m.Counters[name])
		}
		names = names[:0]
		for name := range m.Gauges {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-44s %d\n", name, m.Gauges[name])
		}
		names = names[:0]
		for name := range m.Histograms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			h := m.Histograms[name]
			fmt.Printf("  %-44s count=%d mean=%v\n", name, h.Count, h.Mean)
		}
	case `\trace`:
		switch {
		case len(fields) == 2 && fields[1] == "on":
			db.SetTracing(true)
			fmt.Println("  tracing on: every result now prints its phase trace.")
		case len(fields) == 2 && fields[1] == "off":
			db.SetTracing(false)
			fmt.Println("  tracing off.")
		default:
			fmt.Println(`  usage: \trace on|off`)
		}
	case `\timeout`:
		switch {
		case len(fields) == 1:
			if queryTimeout > 0 {
				fmt.Printf("  query timeout: %v\n", queryTimeout)
			} else {
				fmt.Println("  query timeout: off")
			}
		case len(fields) == 2 && fields[1] == "off":
			queryTimeout = 0
			fmt.Println("  query timeout off.")
		case len(fields) == 2:
			d, err := time.ParseDuration(fields[1])
			if err != nil || d <= 0 {
				fmt.Println(`  usage: \timeout <dur>|off  (e.g. \timeout 50ms)`)
				return true
			}
			queryTimeout = d
			fmt.Printf("  query timeout: %v (queries under pressure degrade to approximation).\n", d)
		default:
			fmt.Println(`  usage: \timeout <dur>|off`)
		}
	case `\governor`:
		g := db.GovernorStats()
		fmt.Printf("  slots:     %d/%d in use, %d/%d queued\n",
			g.SlotsInUse, g.Slots, g.Queued, g.QueueDepth)
		if g.MemLimit > 0 {
			fmt.Printf("  memory:    %d/%d bytes in use (per-query cap %d)\n",
				g.MemUsed, g.MemLimit, g.QueryMemLimit)
		} else {
			fmt.Println("  memory:    accounting disabled")
		}
		fmt.Printf("  mean hold: %v (drives Retry-After on overload)\n", g.MeanHold)
	case `\serve`:
		switch {
		case len(fields) == 2 && fields[1] == "stop":
			if srv == nil {
				fmt.Println("  not serving.")
				return true
			}
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			err := srv.Shutdown(ctx)
			cancel()
			srv = nil
			if err != nil {
				fmt.Println("  drain error:", err)
				return true
			}
			fmt.Println("  server drained and stopped.")
		case len(fields) == 2:
			if srv != nil {
				fmt.Println(`  already serving; \serve stop first.`)
				return true
			}
			s, err := server.New(server.Config{
				Tenants: []server.Tenant{{Name: "shell", DB: db}},
			})
			if err != nil {
				fmt.Println("  error:", err)
				return true
			}
			addr, err := s.Start(fields[1])
			if err != nil {
				fmt.Println("  error:", err)
				return true
			}
			srv = s
			fmt.Printf("  serving the query API on %s (tenant \"shell\", shared sample store).\n", addr)
			fmt.Printf("  try: curl -s %s/v1/query -d '{\"sql\":\"SELECT COUNT(*) FROM lineorder APPROX\"}'\n", "http://"+addr.String())
			fmt.Println(`  stop with \serve stop (drains in-flight queries first).`)
		default:
			fmt.Println(`  usage: \serve <addr>|stop   (e.g. \serve :8632)`)
		}
	case `\shards`:
		if shardPool == nil {
			fmt.Println("  no shard pool configured (start with -shards name=url,...).")
			return true
		}
		if len(fields) == 2 && fields[1] == "probe" {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			shardPool.ProbeAll(ctx)
			cancel()
		}
		healthy, total := shardPool.Healthy()
		fmt.Printf("  %d/%d nodes healthy (distribution map v%d)\n", healthy, total, shardPool.MapVersion())
		for _, ns := range shardPool.Status() {
			ewma := "no history"
			if ns.EWMA > 0 {
				ewma = fmt.Sprintf("ewma %v", ns.EWMA.Round(time.Millisecond/10))
			}
			fmt.Printf("    %-12s %-28s breaker %-9s %s (consecutive failures: %d)\n",
				ns.Name, ns.BaseURL, ns.State, ewma, ns.Failures)
		}
		fmt.Println(`  (\shards probe re-checks every node's /readyz now)`)
	case `\clear`:
		db.ClearSamples()
		fmt.Println("  sample store cleared.")
	case `\save`:
		if len(fields) < 2 {
			fmt.Println(`  usage: \save <path>`)
			return true
		}
		if err := db.SaveSamples(fields[1]); err != nil {
			fmt.Println("  error:", err)
			return true
		}
		fmt.Printf("  sample store saved to %s (crash-safe: checksummed + fsynced).\n", fields[1])
	case `\load`:
		if len(fields) < 2 {
			fmt.Println(`  usage: \load <path>`)
			return true
		}
		// LoadSamples salvages around damaged entries (warnings go to the
		// standard logger); only an unreadable file errors out.
		if err := db.LoadSamples(fields[1]); err != nil {
			fmt.Println("  error:", err)
			return true
		}
		s := db.SampleStoreStats()
		fmt.Printf("  sample store loaded from %s (%d samples cached).\n", fields[1], s.Samples)
	case `\help`:
		fmt.Println(`  \tables   list tables    \d <t>      describe table   \stats  store stats`)
		fmt.Println(`  \samples  list samples   \clear      drop samples     \q      quit`)
		fmt.Println(`  \metrics  metric values  \trace on|off  per-query phase traces`)
		fmt.Println(`  \timeout <dur>|off  per-query deadline (degrades under pressure)`)
		fmt.Println(`  \governor  admission slots, queue, and memory budget status`)
		fmt.Println(`  \serve <addr>|stop  serve the HTTP query API over this session's store`)
		fmt.Println(`  \shards [probe]  shard node health and breaker states (with -shards)`)
		fmt.Println(`  \save <path>  persist samples (durable)   \load <path>  restore samples`)
		fmt.Println(`  EXPLAIN <query>          print the plan without executing`)
		fmt.Println(`  EXPLAIN ANALYZE <query>  execute and print the annotated phase trace`)
	default:
		fmt.Println("  unknown command; try \\help")
	}
	return true
}

func execute(db *laqy.DB, text string) {
	// Ctrl-C cancels the in-flight query (releasing its governor
	// admission) instead of killing the shell; a second Ctrl-C after the
	// query returns falls back to the default interrupt behavior.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if queryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, queryTimeout)
		defer cancel()
	}
	res, err := db.QueryContext(ctx, text)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// EXPLAIN returns only the plan description; EXPLAIN ANALYZE executes
	// and returns the annotated trace alongside the rows.
	if res.Explain != "" {
		fmt.Print(res.Explain)
		if len(res.Rows) == 0 {
			return
		}
	}
	header := append(append([]string{}, res.GroupColumns...), res.AggColumns...)
	fmt.Println(strings.Join(header, " | "))
	limit := len(res.Rows)
	const maxRows = 40
	if limit > maxRows {
		limit = maxRows
	}
	for _, row := range res.Rows[:limit] {
		var cells []string
		for _, g := range row.Groups {
			cells = append(cells, g.String())
		}
		for _, a := range row.Aggs {
			if a.Exact {
				cells = append(cells, fmt.Sprintf("%.0f", a.Value))
			} else {
				lo, hi, _ := a.ConfidenceInterval(0.95) // 0.95 is always valid
				cells = append(cells, fmt.Sprintf("%.0f ±[%.0f, %.0f]", a.Value, lo, hi))
			}
		}
		fmt.Println(strings.Join(cells, " | "))
	}
	if len(res.Rows) > limit {
		fmt.Printf("... (%d more rows)\n", len(res.Rows)-limit)
	}
	fmt.Printf("-- %d rows, mode=%s, scanned=%d, selected=%d, total=%v\n",
		len(res.Rows), res.Mode, res.Stats.RowsScanned, res.Stats.RowsSelected, res.Stats.Total)
	if len(res.Degradations) > 0 {
		var steps []string
		for _, d := range res.Degradations {
			steps = append(steps, d.String())
		}
		stale := ""
		if res.Stale {
			stale = " (stale: stored sample served as-is; CIs widened)"
		}
		fmt.Printf("-- degraded: %s%s\n", strings.Join(steps, ", "), stale)
	}
	if res.Trace != nil && res.Explain == "" {
		fmt.Print(res.Trace.Render())
	}
}
