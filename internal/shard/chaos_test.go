// Multi-process chaos harness for the distributed-segments failure
// ladder (docs/SHARDING.md, "Distributed"): real laqyd shard daemons in
// child processes, real TCP between them, and real process faults —
// one daemon SIGKILLed and one SIGSTOPped while its build is in flight.
// The coordinator must answer anyway: a 206-shaped partial result with
// the dead shard's segment dropped, the stalled shard's segment rescued
// by hedge/retry, extrapolation keeping estimates near ground truth,
// confidence intervals widened, retries bounded by the policy, and no
// goroutine left behind.
//
// The external test package (shard_test) lets this file import
// internal/server (which imports internal/shard) without a cycle.
package shard_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"laqy"
	"laqy/internal/governor"
	"laqy/internal/netfault"
	"laqy/internal/obs"
	"laqy/internal/server"
	"laqy/internal/shard"
	"laqy/internal/storage"
)

// The shared fixture: every process (coordinator and shard daemons)
// loads SSB with the same knobs, so catalogs, segment boundaries, and
// content versions agree exactly — the same contract production shards
// satisfy by replicating the same table.
const (
	chaosRows = 150_000 // 3 segments at the 64Ki morsel-floor segment size
	chaosSeed = 11
	chaosSQL  = "SELECT lo_discount, SUM(lo_revenue) FROM lineorder GROUP BY lo_discount APPROX"
	exactSQL  = "SELECT lo_discount, SUM(lo_revenue) FROM lineorder GROUP BY lo_discount"

	daemonEnv = "LAQY_SHARD_CHAOS_DAEMON"
)

func chaosDB() (*laqy.DB, error) {
	db := laqy.Open(laqy.Config{DefaultK: 64, Seed: chaosSeed, Workers: 2, SegmentRows: storage.DefaultMorselSize})
	if err := db.LoadSSB(chaosRows, chaosSeed); err != nil {
		return nil, err
	}
	return db, nil
}

// TestMain doubles as the shard-daemon entry point: the parent re-execs
// its own test binary with daemonEnv set, and that child serves a laqyd
// shard until killed instead of running tests.
func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) != "" {
		runShardDaemon()
		return
	}
	os.Exit(m.Run())
}

// runShardDaemon serves one shard: the fixture DB behind the full
// server handler (so /v1/segment/build and /readyz behave exactly as in
// production) on an ephemeral port announced on stdout.
func runShardDaemon() {
	db, err := chaosDB()
	if err != nil {
		fmt.Fprintln(os.Stderr, "daemon:", err)
		os.Exit(1)
	}
	srv, err := server.New(server.Config{Tenants: []server.Tenant{{Name: "main", DB: db}}})
	if err != nil {
		fmt.Fprintln(os.Stderr, "daemon:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "daemon:", err)
		os.Exit(1)
	}
	fmt.Printf("ADDR %s\n", ln.Addr())
	if err := http.Serve(ln, srv.Handler()); err != nil {
		os.Exit(1) // parent killed us or closed the socket: expected
	}
}

// daemon is one child shard process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
}

func (d *daemon) url() string { return "http://" + d.addr }

// stop reaps the child whatever state it is in (running, stopped, or
// already dead).
func (d *daemon) stop() {
	if d.cmd.Process != nil {
		d.cmd.Process.Signal(syscall.SIGCONT) //laqy:allow errchecklite may already be dead
		d.cmd.Process.Kill()                  //laqy:allow errchecklite may already be dead
	}
	d.cmd.Wait() //laqy:allow errchecklite reap only; exit status is fault injection
}

// spawnDaemon re-execs the test binary as a shard daemon and waits for
// its ADDR announcement.
func spawnDaemon(t *testing.T) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), daemonEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd}
	t.Cleanup(d.stop)

	lines := bufio.NewScanner(out)
	ready := make(chan string, 1)
	go func() {
		for lines.Scan() {
			if addr, ok := strings.CutPrefix(lines.Text(), "ADDR "); ok {
				ready <- addr
				return
			}
		}
		close(ready)
	}()
	select {
	case addr, ok := <-ready:
		if !ok {
			t.Fatal("daemon exited before announcing its address")
		}
		d.addr = addr
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not announce its address")
	}
	return d
}

// meanStdErr averages the first aggregate's standard error across rows.
func meanStdErr(t *testing.T, res *laqy.Result) float64 {
	t.Helper()
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	var sum float64
	for _, r := range res.Rows {
		sum += r.Aggs[0].StdErr
	}
	return sum / float64(len(res.Rows))
}

// TestShardChaos is the acceptance harness: `make shardchaos` runs it
// under -race and uploads the metrics snapshot it writes to
// $LAQY_SHARDCHAOS_METRICS_OUT.
func TestShardChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos harness")
	}
	baseGoroutines := runtime.NumGoroutine()

	// Three real shard daemons.
	d0 := spawnDaemon(t)
	d1 := spawnDaemon(t) // will be SIGSTOPped mid-build
	d2 := spawnDaemon(t) // will be SIGKILLed mid-build

	// Fault proxies in front of the two victims: 400ms of added latency
	// guarantees their builds are still in flight when the signals land.
	p1, err := netfault.NewProxy(d1.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close() //laqy:allow errchecklite teardown; double-close is safe
	p2, err := netfault.NewProxy(d2.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close() //laqy:allow errchecklite teardown; double-close is safe

	exact, healthy := groundTruthAndHealthyBaseline(t, d0, d1, d2)

	// The degraded run: its own coordinator DB (so the healthy run's
	// stored sample can't be reused) with the victims behind proxies.
	coord, err := chaosDB()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	opts := shard.Options{
		Retry:          governor.RetryPolicy{MaxAttempts: 3, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 20 * time.Millisecond, Seed: chaosSeed},
		AttemptTimeout: 700 * time.Millisecond,
		HedgeAfter:     150 * time.Millisecond,
		FailThreshold:  3,
		OpenFor:        time.Minute,
		Transport:      transport,
	}
	pool := shard.NewPool([]shard.NodeConfig{
		{Name: "n0", BaseURL: d0.url()},
		{Name: "n1", BaseURL: "http://" + p1.Addr()},
		{Name: "n2", BaseURL: "http://" + p2.Addr()},
	}, opts, reg)
	// Segment 1's stalled leader has a healthy follower (the hedge/retry
	// rescue path); segment 2's dead leader has none (the drop path).
	if !pool.SetMap(shard.Map{Version: 1, Assignments: map[int]shard.Assignment{
		0: {Leader: "n0"},
		1: {Leader: "n1", Followers: []string{"n0"}},
		2: {Leader: "n2"},
	}}) {
		t.Fatal("map rejected")
	}
	coord.SetSegmentPlanner(shard.NewPlanner(pool))

	p1.SetDelay(400 * time.Millisecond)
	p1.SetMode(netfault.Latency)
	p2.SetDelay(400 * time.Millisecond)
	p2.SetMode(netfault.Latency)

	type answer struct {
		res *laqy.Result
		err error
	}
	done := make(chan answer, 1)
	go func() {
		res, err := coord.Query(chaosSQL)
		done <- answer{res, err}
	}()

	// The builds against n1 and n2 are now parked in the proxies' 400ms
	// latency window. Stall one daemon and kill the other mid-build.
	time.Sleep(100 * time.Millisecond)
	if err := d1.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}
	if err := d2.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}

	var got answer
	select {
	case got = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("degraded query did not finish")
	}
	if got.err != nil {
		t.Fatalf("partial-answer path failed outright: %v", got.err)
	}
	res := got.res

	// 1. The answer is a labeled partial: segment 2 dropped with shard
	// attribution, segments 0 and 1 built (the stall was rescued).
	if res.Stats.Segments != 3 || res.Stats.SegmentsBuilt != 2 {
		t.Fatalf("segments built = %d/%d, want 2/3", res.Stats.SegmentsBuilt, res.Stats.Segments)
	}
	if len(res.Degradations) == 0 {
		t.Fatal("dropped segment not labeled")
	}
	var label string
	for _, d := range res.Degradations {
		label += d.String() + "\n"
	}
	if !strings.Contains(label, "drop_segments") || !strings.Contains(label, "n2") ||
		!strings.Contains(label, "2 of 3 segments built") {
		t.Fatalf("degradation label: %q", label)
	}

	// 2. Extrapolation holds the estimates near ground truth: each
	// group's SUM from 2/3 coverage lands within 25% of exact.
	if len(res.Rows) != len(exact.Rows) {
		t.Fatalf("groups: %d vs exact %d", len(res.Rows), len(exact.Rows))
	}
	for i, row := range res.Rows {
		want := exact.Rows[i].Aggs[0].Value
		rel := math.Abs(row.Aggs[0].Value-want) / math.Abs(want)
		if rel > 0.25 {
			t.Fatalf("group %v: extrapolated %v vs exact %v (%.1f%% off)",
				row.Groups, row.Aggs[0].Value, want, rel*100)
		}
	}

	// 3. Confidence intervals widened vs the healthy run of the same
	// query (the partial-coverage scale widens every standard error).
	if degraded, base := meanStdErr(t, res), meanStdErr(t, healthy); degraded <= base {
		t.Fatalf("CI did not widen: stderr %v (degraded) vs %v (healthy)", degraded, base)
	}

	// 4. Retries bounded by the policy: at most MaxAttempts per segment,
	// and at most MaxAttempts-1 recorded retries each.
	snap := reg.Snapshot()
	if v := snap.Counters[obs.MShardRetries]; v > 3*2 {
		t.Fatalf("retries = %d, exceeds policy bound", v)
	}
	if v := snap.Counters[obs.MShardAttempts]; v > 3*3+snap.Counters[obs.MShardHedges] {
		t.Fatalf("attempts = %d (hedges %d), exceeds policy bound", v, snap.Counters[obs.MShardHedges])
	}
	if snap.Counters[obs.MShardDropped] != 1 {
		t.Fatalf("dropped = %d, want exactly the dead shard's segment", snap.Counters[obs.MShardDropped])
	}

	// Metrics artifact for the CI job.
	if path := os.Getenv("LAQY_SHARDCHAOS_METRICS_OUT"); path != "" {
		blob, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// 5. Zero goroutine leaks: tear down the fault plane and the HTTP
	// pool, then the count must settle back to the baseline (the stalled
	// in-flight losers must have been joined, not abandoned).
	p1.Close() //laqy:allow errchecklite teardown
	p2.Close() //laqy:allow errchecklite teardown
	transport.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseGoroutines+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseGoroutines, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// groundTruthAndHealthyBaseline computes the exact answer and a healthy
// all-shards-up APPROX run of the chaos query, both on their own
// coordinator DB so nothing is shared with the degraded run.
func groundTruthAndHealthyBaseline(t *testing.T, d0, d1, d2 *daemon) (exact, healthy *laqy.Result) {
	t.Helper()
	db, err := chaosDB()
	if err != nil {
		t.Fatal(err)
	}
	exact, err = db.Query(exactSQL)
	if err != nil {
		t.Fatal(err)
	}
	// An owned transport, drained before returning, so the baseline's
	// idle connections don't read as leaks in the final goroutine check.
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	pool := shard.NewPool([]shard.NodeConfig{
		{Name: "n0", BaseURL: d0.url()},
		{Name: "n1", BaseURL: d1.url()},
		{Name: "n2", BaseURL: d2.url()},
	}, shard.Options{HedgeAfter: -1, Transport: transport}, nil)
	db.SetSegmentPlanner(shard.NewPlanner(pool))
	healthy, err = db.Query(chaosSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(healthy.Degradations) != 0 {
		t.Fatalf("healthy baseline degraded: %+v", healthy.Degradations)
	}
	return exact, healthy
}
