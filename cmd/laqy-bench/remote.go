// Remote mode: benchmark a running laqyd daemon over HTTP instead of an
// in-process engine. Selected with -url; drives the same SSB query shapes
// as the local experiments through POST /v1/query and reports throughput,
// the latency distribution, and the response-class mix — including how
// many overload rejections carried an honored Retry-After.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"laqy/internal/bench"
	"laqy/internal/obs"
	"laqy/internal/rng"
	"laqy/internal/server"
)

// remoteResult is one request's outcome.
type remoteResult struct {
	status    int
	latency   time.Duration
	retrySecs int  // parsed Retry-After on 429/503 (0 when absent)
	err       bool // transport failure
}

// remoteBench fires clients×requests queries at a laqyd instance and
// tabulates the response classes, with the Retry-After and latency
// summaries as notes.
func remoteBench(url, tenant string, clients, requests int, seed uint64) (*bench.Table, error) {
	httpc := &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients},
	}
	defer httpc.CloseIdleConnections()

	// Probe first so a wrong URL fails fast with a useful message.
	resp, err := httpc.Get(url + "/healthz")
	if err != nil {
		return nil, fmt.Errorf("laqyd not reachable at %s: %w", url, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	results := make([][]remoteResult, clients)
	start := obs.Clock()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := rng.NewLehmer64(seed + uint64(id)*0x9e37)
			out := make([]remoteResult, 0, requests)
			for i := 0; i < requests; i++ {
				lo := r.Uint64n(10) * 1000
				hi := lo + 1000 + r.Uint64n(9000)
				q := fmt.Sprintf(`SELECT d_year, SUM(lo_revenue) FROM lineorder, date
					WHERE lo_orderdate = d_datekey AND lo_intkey BETWEEN %d AND %d
					GROUP BY d_year`, lo, hi)
				if r.Uint64n(2) == 0 {
					q += " APPROX"
				}
				body, _ := json.Marshal(server.QueryRequest{SQL: q, Tenant: tenant})
				reqStart := obs.Clock()
				resp, err := httpc.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
				res := remoteResult{latency: obs.Since(reqStart)}
				if err != nil {
					res.err = true
					out = append(out, res)
					continue
				}
				var env server.Envelope
				_ = json.NewDecoder(resp.Body).Decode(&env)
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				res.status = resp.StatusCode
				if sec, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil {
					res.retrySecs = sec
				}
				out = append(out, res)
				// Honor the server's backoff: overload rejections are a
				// signal, and a bench that ignores them measures a DoS.
				if resp.StatusCode == http.StatusTooManyRequests && env.Error != nil &&
					env.Error.RetryAfterMS > 0 {
					time.Sleep(time.Duration(env.Error.RetryAfterMS) * time.Millisecond)
				}
			}
			results[id] = out
		}(c)
	}
	wg.Wait()
	wall := obs.Since(start)

	all := slices.Concat(results...)
	classes := map[string]int{}
	var oks []time.Duration
	retryCarried, retryMissing := 0, 0
	for _, res := range all {
		switch {
		case res.err:
			classes["transport error"]++
		case res.status == http.StatusOK:
			classes["200 ok"]++
			oks = append(oks, res.latency)
		case res.status == http.StatusPartialContent:
			classes["206 degraded"]++
			oks = append(oks, res.latency)
		case res.status == http.StatusTooManyRequests:
			classes["429 overloaded"]++
			if res.retrySecs >= 1 {
				retryCarried++
			} else {
				retryMissing++
			}
		default:
			classes[fmt.Sprintf("%d", res.status)]++
		}
	}

	t := &bench.Table{
		ID:     "remote",
		Title:  fmt.Sprintf("%s tenant=%q: %d clients x %d requests", url, tenant, clients, requests),
		Header: []string{"class", "count"},
	}
	names := make([]string, 0, len(classes))
	for name := range classes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Append(name, fmt.Sprint(classes[name]))
	}
	if retryCarried+retryMissing > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("429s carrying Retry-After: %d/%d", retryCarried, retryCarried+retryMissing))
	}
	if len(oks) > 0 {
		sort.Slice(oks, func(i, j int) bool { return oks[i] < oks[j] })
		pct := func(p int) time.Duration { return oks[(len(oks)-1)*p/100] }
		t.Notes = append(t.Notes, fmt.Sprintf("successful answers: %d in %v (%.0f qps); latency p50=%v p95=%v p99=%v max=%v",
			len(oks), wall.Round(time.Millisecond), float64(len(oks))/wall.Seconds(),
			pct(50).Round(time.Microsecond), pct(95).Round(time.Microsecond),
			pct(99).Round(time.Microsecond), pct(100).Round(time.Microsecond)))
	}
	return t, nil
}
