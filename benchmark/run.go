package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"laqy"
	"laqy/internal/server"
	"laqy/internal/sql"
	"laqy/internal/ssb"
)

// env is one set-up of the program: a loaded DB and, for the served
// workload, a daemon in front of it.
type env struct {
	db  *laqy.DB
	srv *server.Server
	url string

	loadDur, encodeDur time.Duration
	storage            laqy.StorageStats
}

// setUp does everything that precedes the first timed op: load, forced
// encoding build, server start, warm-up. Its wall time is setup_s.
func setUp(p *plan, seed uint64) (*env, error) {
	cfg := laqy.Config{Seed: seed, Workers: min(runtime.NumCPU(), 4)}
	if p.info.name == "ingest-maintain" {
		// Small segments, so that the growing table crosses a segment seal
		// (sealing, encoding, zone-map rebuild) every 25 cycles: twice a lap.
		cfg.SegmentRows = p.rows / 32
	}
	e := &env{db: laqy.Open(cfg)}
	t := time.Now()
	if err := e.db.LoadSSB(p.baseRows, seed); err != nil {
		return nil, err
	}
	e.loadDur = time.Since(t)
	if p.info.name == "exact-ssb" {
		if err := registerByDate(e.db, p.baseRows, seed); err != nil {
			return nil, err
		}
	}
	t = time.Now()
	e.storage = e.db.StorageStats()
	e.encodeDur = time.Since(t)

	if p.info.name == "dashboard-hot" {
		srv, err := server.New(server.Config{Tenants: []server.Tenant{{Name: "bench", DB: e.db}}})
		if err != nil {
			return nil, err
		}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		e.srv, e.url = srv, "http://"+addr.String()+"/v1/query"
	}
	if err := e.warmUp(p); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// registerByDate adds byDateTable to the catalogue: the same rows LoadSSB
// generated, sorted by lo_orderdate.
func registerByDate(db *laqy.DB, rows int, seed uint64) error {
	data, err := ssb.Generate(ssb.Config{LineorderRows: rows, Seed: seed})
	if err != nil {
		return err
	}
	// Dates are eight decimal digits, so date and row number share a word.
	order := make([]int64, rows)
	for i, d := range data.Lineorder.Column("lo_orderdate").Ints {
		order[i] = d<<32 | int64(i)
	}
	slices.Sort(order)
	tb := laqy.NewTable(byDateTable)
	for _, name := range byDateColumns {
		src := data.Lineorder.Column(name).Ints
		vals := make([]int64, rows)
		for i, o := range order {
			vals[i] = src[o&(1<<32-1)]
		}
		tb.Int64(name, vals)
	}
	return db.Register(tb)
}

// warmUp runs a spread of the workload's own queries off the clock so that
// lazily built zone maps and encodings exist before timing, and fills the
// store where the workload expects it full.
func (e *env) warmUp(p *plan) error {
	var warm []string
	switch p.info.name {
	case "dashboard-hot", "ingest-maintain":
		for _, o := range p.panel {
			warm = append(warm, o.sql)
		}
	case "exact-ssb":
		for _, o := range p.lists[0][:exactShapesN] {
			warm = append(warm, o.sql)
		}
	default:
		list := p.lists[0]
		for i := 0; i < 32; i++ {
			warm = append(warm, list[i*len(list)/32].sql)
		}
	}
	for _, q := range warm {
		if _, err := e.db.Query(q); err != nil {
			return fmt.Errorf("warm-up %q: %w", q, err)
		}
	}
	if p.info.name == "explore-lazy" || p.info.name == "explore-online" {
		e.db.ClearSamples()
	}
	return nil
}

func (e *env) close() {
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = e.srv.Shutdown(ctx) // nothing is in flight; a failed drain only delays exit
		cancel()
	}
	e.db, e.srv = nil, nil
	runtime.GC()
}

type callKind uint8

const (
	callQuery   callKind = iota // DB.QueryContext
	callAppend                  // DB.Append
	callRequest                 // POST /v1/query
)

// call is one call into the program made during a timed op.
type call struct {
	kind callKind
	lat  time.Duration
	mode string
	// scan, process, merge, total are the breakdown the call returned.
	scan, process, merge, total time.Duration
	rowsScanned, rowsSelected   int64
	// rows is the number of result rows, or of rows appended.
	rows int
	// width is the op's (see op.width).
	width int64
	// Served calls only.
	status       int
	wire, decode time.Duration
	bytes        int
}

// check is an answer kept from the timed run for verification.
type check struct {
	label string
	spec  *spec
	got   answer
	// fresh says the answer came from a sample built for this very query
	// (mode online), not from a stored one.
	fresh bool
	// truth is the exact answer when it had to be taken during the run
	// (the table changes under ingest-maintain); otherwise it is computed
	// after the run.
	truth answer
}

// pass is what one timed pass over the ops produced.
type pass struct {
	// opLat and opShape are parallel: latency and shape of each op of a lap.
	// A time-bounded pass repeats the lap until its time is up and always
	// ends on a whole lap, so that a faster program is timed on the same ops
	// as a slower one, only more often; opLat is then each op's median over
	// the laps.
	opLat   []time.Duration
	opShape []int
	// opsPerS is the closed-loop throughput of a lap (per client, its ops
	// over the sum of their latencies), the median over the laps.
	opsPerS float64
	laps    int
	// calls are the calls of every lap; checks are kept from the first.
	calls  []call
	checks []check
	// failures are ops whose outcome was wrong: an error, a bad status, a
	// mode the workload rules out.
	failures []string
	// setups are the set-ups made during the pass (ingest-maintain starts
	// every lap from a freshly loaded table), and appended the batches the
	// last of them received.
	setups   []time.Duration
	appended int

	counters, srvCounters map[string]int64
	// mallocs, allocBytes and gcPauseNS are runtime.MemStats deltas over the
	// pass. liveHeap is the heap still in use after a collection: what the
	// program retains (tables, encodings, stored samples), not its garbage.
	// It is sampled at the end of the pass and at the end of each
	// explore-lazy session, and the largest sample is kept.
	mallocs, allocBytes, gcPauseNS uint64
	liveHeap                       uint64
	store                          laqy.SampleStoreStats
	storageEnd                     laqy.StorageStats
	rec                            *recorder
}

// minLaps is the fewest laps a time-bounded pass runs, however slow.
const minLaps = 3

// runner drives one pass.
type runner struct {
	p    *plan
	e    *env
	seed uint64
	rec  *recorder
	// seconds bounds the timed region, which ends with the lap in which the
	// time runs out. fixed > 0 runs one lap of exactly that many ops instead.
	seconds float64
	fixed   int

	mu  sync.Mutex
	out *pass
}

func (r *runner) fail(format string, args ...any) {
	r.mu.Lock()
	r.out.failures = append(r.out.failures, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// run executes the pass and the snapshots around it.
func (r *runner) run() (*pass, error) {
	r.out = &pass{rec: r.rec}
	n := r.p.info.lapOps
	if r.fixed > 0 {
		n = r.fixed
	}
	lap := r.lapEmbedded
	switch r.p.info.name {
	case "dashboard-hot":
		lap = r.lapServed
	case "ingest-maintain":
		lap = r.lapIngest
		if n > len(r.p.batches) {
			return nil, fmt.Errorf("ingest-maintain has %d batches; -ops %d needs more", len(r.p.batches), n)
		}
	}
	before := r.e.db.Metrics().Counters
	var srvBefore map[string]int64
	if r.e.srv != nil {
		srvBefore = r.e.srv.Metrics().Counters
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)

	// lats[l][c][i] is the latency of client c's i-th op in lap l.
	var lats [][][]time.Duration
	for start := time.Now(); ; {
		if len(lats) > 0 && r.p.info.name == "ingest-maintain" {
			// The table has grown; the next lap needs it as it was.
			r.e.close()
			t := time.Now()
			e, err := setUp(r.p, r.seed)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			r.out.setups = append(r.out.setups, time.Since(t))
			r.e, before = e, e.db.Metrics().Counters
		}
		l, err := lap(len(lats), n)
		if err != nil {
			return nil, err
		}
		lats = append(lats, l)
		if r.fixed > 0 || len(lats) >= minLaps && time.Since(start).Seconds() >= r.seconds {
			break
		}
	}

	runtime.ReadMemStats(&m1)
	r.out.mallocs, r.out.allocBytes, r.out.gcPauseNS = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc, m1.PauseTotalNs-m0.PauseTotalNs
	r.sampleLiveHeap()
	r.out.counters = delta(before, r.e.db.Metrics().Counters)
	if r.e.srv != nil {
		r.out.srvCounters = delta(srvBefore, r.e.srv.Metrics().Counters)
	}
	r.out.store = r.e.db.SampleStoreStats()
	r.out.storageEnd = r.e.db.StorageStats()

	// Interference from outside the process comes in bursts of a second or
	// a few, so the numbers are medians over the laps: of each lap's
	// throughput, and of each op's latency.
	r.out.laps = len(lats)
	perLap := make([]float64, len(lats))
	across := make([]time.Duration, len(lats))
	for c := range lats[0] {
		for l := range lats {
			var sum time.Duration
			for _, d := range lats[l][c] {
				sum += d
			}
			perLap[l] += ratio(float64(len(lats[l][c])), sum.Seconds())
		}
		for i := range lats[0][c] {
			for l := range lats {
				across[l] = lats[l][c][i]
			}
			r.out.opLat = append(r.out.opLat, median(across))
			r.out.opShape = append(r.out.opShape, r.p.lists[c][i%len(r.p.lists[c])].shape)
		}
	}
	r.out.opsPerS = median(perLap)
	return r.out, nil
}

// sampleLiveHeap collects, off the clock, and records the heap in use.
func (r *runner) sampleLiveHeap() {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.out.liveHeap = max(r.out.liveHeap, m.HeapAlloc)
}

func delta(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// query makes one timed DB.QueryContext call and records it. In a traced
// pass it first times sql.Parse on the same text, outside the op's latency.
func (r *runner) query(opID string, root int, o *op) (*laqy.Result, call, error) {
	if r.rec != nil {
		t := time.Now()
		_, _ = sql.Parse(o.sql) // timing only; QueryContext reports a bad statement
		r.rec.add(root, opID, "sql.parse", t, time.Since(t), nil)
	}
	t := time.Now()
	res, err := r.e.db.QueryContext(context.Background(), o.sql)
	c := call{kind: callQuery, lat: time.Since(t)}
	if err != nil {
		return nil, c, err
	}
	c.mode = res.Mode.String()
	c.scan, c.process, c.merge, c.total = res.Stats.Scan, res.Stats.Process, res.Stats.Merge, res.Stats.Total
	c.rowsScanned, c.rowsSelected = res.Stats.RowsScanned, res.Stats.RowsSelected
	c.rows = len(res.Rows)
	c.width = o.width
	if r.rec != nil {
		id := r.rec.add(root, opID, "laqy.query", t, c.lat, map[string]string{
			"mode": c.mode, "scan_ns": fmt.Sprint(c.scan.Nanoseconds()), "process_ns": fmt.Sprint(c.process.Nanoseconds()),
			"merge_ns": fmt.Sprint(c.merge.Nanoseconds()), "rows_scanned": fmt.Sprint(c.rowsScanned)})
		if res.Trace != nil {
			r.rec.graft(id, opID, t, res.Trace.Root)
		}
	}
	return res, c, nil
}

// lapEmbedded is one lap of the single closed-loop client of the explore
// and exact workloads: one query per op, the next sent when the last has
// answered. A lap starts on a session boundary, so every lap of explore-lazy
// starts from an empty store.
func (r *runner) lapEmbedded(lap, n int) ([][]time.Duration, error) {
	list := r.p.lists[0]
	every := r.p.info.checkEvery
	lats := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		o := &list[i%len(list)]
		if o.newSession && i > 0 {
			r.sampleLiveHeap()
		}
		if o.clear {
			r.e.db.ClearSamples()
		}
		opID := fmt.Sprintf("%s/%d", r.p.info.name, i)
		start := time.Now()
		root := r.rec.add(-1, opID, "op", start, 0, nil)
		res, c, err := r.query(opID, root, o)
		r.rec.finish(root, time.Since(start))
		lats = append(lats, c.lat)
		if err != nil {
			r.fail("lap %d op %d %q: %v", lap, i, o.sql, err)
			continue
		}
		r.out.calls = append(r.out.calls, c)
		if o.spec.approx == (res.Mode == laqy.ModeExact) {
			r.fail("lap %d op %d: mode %s for approx=%v", lap, i, res.Mode, o.spec.approx)
		}
		// Keep answers to verify: the first round of exact-ssb (every shape
		// once), a regular subsample elsewhere.
		if lap == 0 && (every == 0 && i < exactShapesN || every > 0 && i%every == 0) {
			r.out.checks = append(r.out.checks, check{label: opID, spec: o.spec, got: answerOf(res), fresh: res.Mode == laqy.ModeOnline})
		}
	}
	return [][]time.Duration{lats}, nil
}

// envelope is what the client reads of every /v1/query response: the
// outcome and the breakdown, not the rows. Decoding 2.5 k rows costs the
// client more than the query costs the server, and on a shared box that
// would make the load generator the thing measured.
type envelope struct {
	Mode  string `json:"mode"`
	Stats *struct {
		ScanNS       int64 `json:"scan_ns"`
		ProcessNS    int64 `json:"process_ns"`
		MergeNS      int64 `json:"merge_ns"`
		TotalNS      int64 `json:"total_ns"`
		RowsScanned  int64 `json:"rows_scanned"`
		RowsSelected int64 `json:"rows_selected"`
	} `json:"stats"`
	RowCount int `json:"row_count"`
	Error    *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// envelopeRows is decoded, off the clock, only from replies kept for
// verification.
type envelopeRows struct {
	Rows []struct {
		Groups []string `json:"groups"`
		Aggs   []struct {
			Value   float64 `json:"value"`
			StdErr  float64 `json:"stderr"`
			Support int     `json:"support"`
		} `json:"aggs"`
	} `json:"rows"`
}

// lapServed is one lap of dashboard-hot: keep-alive clients, each a closed
// loop over its own request list, all answers expected from the store.
func (r *runner) lapServed(lap, n int) ([][]time.Duration, error) {
	type clientOut struct {
		lats   []time.Duration
		calls  []call
		checks []check
		err    error
	}
	outs := make([]clientOut, len(r.p.lists))
	perClient := n / len(r.p.lists)
	var wg sync.WaitGroup
	for c := range r.p.lists {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			list := r.p.lists[c]
			tr := &http.Transport{MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			for i := 0; i < perClient; i++ {
				o := &list[i%len(list)]
				opID := fmt.Sprintf("%s/c%d.%d", r.p.info.name, c, i)
				opStart := time.Now()
				root := r.rec.add(-1, opID, "op", opStart, 0, nil)
				cl, env, raw, err := r.request(client, opID, root, o)
				if err != nil {
					out.err = err
					return
				}
				out.lats = append(out.lats, cl.lat)
				out.calls = append(out.calls, cl)
				switch {
				case cl.status != http.StatusOK:
					r.fail("lap %d %s: status %d %+v", lap, opID, cl.status, env.Error)
				case env.Mode != "offline" || cl.rowsScanned != 0:
					r.fail("lap %d %s: mode %s, %d rows scanned; want offline, 0", lap, opID, env.Mode, cl.rowsScanned)
				case lap == 0 && i%r.p.info.checkEvery == 0:
					got, err := answerOfReply(raw)
					if err != nil {
						out.err = fmt.Errorf("%s: %w", opID, err)
						return
					}
					out.checks = append(out.checks, check{label: opID, spec: o.spec, got: got})
				}
				if r.rec != nil {
					// Pair the request with the same query made directly, so the
					// trace shows what of the round trip is the wire.
					if _, _, err := r.query(opID, root, o); err != nil {
						r.fail("%s: direct replay: %v", opID, err)
					}
				}
				r.rec.finish(root, time.Since(opStart))
			}
		}(c)
	}
	wg.Wait()
	lats := make([][]time.Duration, len(outs))
	for c, out := range outs {
		if out.err != nil {
			return nil, out.err
		}
		lats[c] = out.lats
		r.out.calls = append(r.out.calls, out.calls...)
		r.out.checks = append(r.out.checks, out.checks...)
	}
	return lats, nil
}

// request posts one buffered query and reads the whole reply.
func (r *runner) request(client *http.Client, opID string, root int, o *op) (call, *envelope, []byte, error) {
	body, err := json.Marshal(map[string]string{"sql": o.sql})
	if err != nil {
		return call{}, nil, nil, err
	}
	t := time.Now()
	resp, err := client.Post(r.e.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return call{}, nil, nil, fmt.Errorf("%s: %w", opID, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return call{}, nil, nil, fmt.Errorf("%s: read reply: %w", opID, err)
	}
	roundTrip := time.Since(t)
	td := time.Now()
	env := &envelope{}
	if err := json.Unmarshal(raw, env); err != nil {
		return call{}, nil, nil, fmt.Errorf("%s: decode reply: %w", opID, err)
	}
	decode := time.Since(td)
	// The op's latency is what the dashboard waits for: reply read and decoded.
	c := call{kind: callRequest, lat: roundTrip + decode, status: resp.StatusCode, decode: decode, bytes: len(raw),
		mode: env.Mode, rows: env.RowCount}
	if env.Stats != nil {
		c.scan, c.process, c.merge = time.Duration(env.Stats.ScanNS), time.Duration(env.Stats.ProcessNS), time.Duration(env.Stats.MergeNS)
		c.total = time.Duration(env.Stats.TotalNS)
		c.rowsScanned, c.rowsSelected = env.Stats.RowsScanned, env.Stats.RowsSelected
		c.wire = roundTrip - c.total
	}
	if r.rec != nil {
		id := r.rec.add(root, opID, "server.request", t, roundTrip, map[string]string{"status": fmt.Sprint(c.status), "bytes": fmt.Sprint(c.bytes)})
		r.rec.add(id, opID, "laqy.query_served", t, c.total, nil)
		r.rec.add(root, opID, "client.decode", td, decode, nil)
	}
	return c, env, raw, nil
}

// lapIngest is one lap of ingest-maintain on a freshly loaded table: one op
// is a refresh cycle, an append of one batch followed by the panel.
func (r *runner) lapIngest(lap, n int) ([][]time.Duration, error) {
	lats := make([]time.Duration, 0, n)
	r.out.appended = 0
	for i := 0; i < n; i++ {
		b := r.p.batches[r.p.lists[0][i].batch]
		tb := laqy.NewTable("lineorder")
		for _, name := range batchColumns {
			tb.Int64(name, b[name])
		}
		opID := fmt.Sprintf("%s/%d", r.p.info.name, i)
		start := time.Now()
		root := r.rec.add(-1, opID, "op", start, 0, nil)
		err := r.e.db.Append("lineorder", tb)
		ac := call{kind: callAppend, lat: time.Since(start), rows: len(b["lo_intkey"])}
		r.rec.add(root, opID, "laqy.append", start, ac.lat, nil)
		if err != nil {
			return nil, fmt.Errorf("lap %d cycle %d: append: %w", lap, i, err) // the table is now behind the batches; nothing after this is comparable
		}
		r.out.appended++
		lat := ac.lat
		r.out.calls = append(r.out.calls, ac)
		got := make([]*laqy.Result, len(r.p.panel))
		for j := range r.p.panel {
			res, c, err := r.query(opID, root, &r.p.panel[j])
			lat += c.lat
			if err != nil {
				r.fail("lap %d cycle %d panel %d: %v", lap, i, j, err)
				continue
			}
			r.out.calls = append(r.out.calls, c)
			got[j] = res
		}
		r.rec.finish(root, time.Since(start))
		lats = append(lats, lat)
		if lap == 0 && i%r.p.info.checkEvery == 0 {
			// The truth of this cycle's estimates is gone after the next
			// append, so take it now, off the clock.
			for j, o := range r.p.panel {
				if !o.spec.approx || got[j] == nil {
					continue
				}
				res, err := r.e.db.Query(o.spec.exact().SQL())
				if err != nil {
					return nil, fmt.Errorf("cycle %d: truth of panel %d: %w", i, j, err)
				}
				r.out.checks = append(r.out.checks, check{label: fmt.Sprintf("%s.%d", opID, j), spec: o.spec, got: answerOf(got[j]), fresh: got[j].Mode == laqy.ModeOnline, truth: answerOf(res)})
			}
		}
	}
	return [][]time.Duration{lats}, nil
}

func answerOf(res *laqy.Result) answer {
	out := make(answer, len(res.Rows))
	var key []byte
	for _, row := range res.Rows {
		key = key[:0]
		for i, g := range row.Groups {
			if i > 0 {
				key = append(key, groupSep)
			}
			key = append(key, g.String()...)
		}
		ests := make([]estimate, len(row.Aggs))
		for i, a := range row.Aggs {
			ests[i] = estimate{value: a.Value, stdErr: a.StdErr, support: a.Support}
		}
		out[string(key)] = ests
	}
	return out
}

func answerOfReply(raw []byte) (answer, error) {
	var env envelopeRows
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, err
	}
	out := make(answer, len(env.Rows))
	for _, row := range env.Rows {
		ests := make([]estimate, len(row.Aggs))
		for i, a := range row.Aggs {
			ests[i] = estimate{value: a.Value, stdErr: a.StdErr, support: a.Support}
		}
		out[strings.Join(row.Groups, string(groupSep))] = ests
	}
	return out, nil
}

// offClock measures what has no place in the timed region: sql.Parse alone
// on each distinct text, and one save/load round trip of the sample store.
func offClock(p *plan, e *env, ps *pass) (map[string]float64, error) {
	extra := map[string]float64{"store.save_ms": 0, "store.load_ms": 0, "store.file_kb": 0}
	var parses []time.Duration
	for text := range p.texts() {
		t := time.Now()
		if _, err := sql.Parse(text); err != nil {
			return nil, fmt.Errorf("parse %q: %w", text, err)
		}
		parses = append(parses, time.Since(t))
	}
	extra["sql.parse_us_p50"] = us(percentile(parses, 0.5))

	if ps.store.Samples == 0 {
		return extra, nil
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "store-")
	if err != nil {
		return nil, err
	}
	defer os.Remove(buildDir) // gone again where only this made it (go test); run.sh's holds the build
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "samples.laqy")
	t := time.Now()
	if err := e.db.SaveSamples(path); err != nil {
		return nil, fmt.Errorf("save samples: %w", err)
	}
	extra["store.save_ms"] = ms(time.Since(t))
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	extra["store.file_kb"] = float64(st.Size()) / 1024
	e.db.ClearSamples()
	t = time.Now()
	if err := e.db.LoadSamples(path); err != nil {
		return nil, fmt.Errorf("load samples: %w", err)
	}
	extra["store.load_ms"] = ms(time.Since(t))
	return extra, nil
}

// buildDir is the one place the benchmark writes scratch files; run.sh
// builds into the same directory and .gitignore names it.
const buildDir = ".bench_build"
