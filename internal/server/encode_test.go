package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"laqy"
	"laqy/internal/obs"
	"laqy/internal/rng"
)

// oracleWireRow is the reflection path's row conversion (wireRow before the
// append encoder): the shape encoding/json is handed in the oracle.
func oracleWireRow(r laqy.Row) WireRow {
	out := WireRow{Groups: make([]string, len(r.Groups)), Aggs: make([]WireAgg, len(r.Aggs))}
	for i, g := range r.Groups {
		out.Groups[i] = g.String()
	}
	for i, a := range r.Aggs {
		out.Aggs[i] = WireAgg{Value: a.Value, StdErr: a.StdErr, Support: a.Support, Exact: a.Exact}
	}
	return out
}

// oracleEnvelope is what json.Encoder wrote for env with rows.
func oracleEnvelope(env Envelope, rows []laqy.Row) ([]byte, error) {
	env.Rows = make([]WireRow, 0, len(rows))
	for _, r := range rows {
		env.Rows = append(env.Rows, oracleWireRow(r))
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(&env)
	return buf.Bytes(), err
}

// oracleFrame is what json.Encoder wrote for one NDJSON frame.
func oracleFrame(kind string, env *Envelope, row laqy.Row) ([]byte, error) {
	w := oracleWireRow(row)
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(StreamFrame{Kind: kind, Envelope: env, Groups: w.Groups, Aggs: w.Aggs})
	return buf.Bytes(), err
}

// envGen draws the values the encoder must get exactly right.
type envGen struct{ g *rng.Lehmer64 }

// strPieces cover every escaping rule: control bytes (short and \u00XX
// forms), HTML-significant bytes, quote and backslash, DEL, invalid UTF-8
// (lone continuation, truncated sequences, 0xff), U+2028/U+2029 and valid
// multi-byte runes.
var strPieces = []string{
	"", "a", "lo_revenue", "SUM(lo_revenue)", " ", "\x00", "\x01", "\x1f", "\b", "\f", "\n", "\r", "\t",
	"<", ">", "&", `"`, `\`, "\x7f", "\xff", "\x80", "\xc3", "\xe2\x80", "\xf0\x9f\x98",
	"\u2028", "\u2029", "\u2027", "\u00e9", "\u65e5\u672c", "\U0001F600", "\ufffd", "skip_delta (deadline pressure; coverage 50%)",
}

func (e envGen) str() string {
	var sb strings.Builder
	for n := e.g.Intn(5); n > 0; n-- {
		sb.WriteString(strPieces[e.g.Intn(len(strPieces))])
	}
	return sb.String()
}

func (e envGen) strs() []string {
	switch e.g.Intn(4) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	out := make([]string, 1+e.g.Intn(3))
	for i := range out {
		out[i] = e.str()
	}
	return out
}

var specialFloats = []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-7, -1e-7, 1e-6, 9.99999e-7, 1e21, -1e21,
	1e20, 999999999999999900000, 1.5e300, 5e-324, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	123456789.125, 1 << 53, 2.5e-10, 1e-100}

func (e envGen) float() float64 {
	if e.g.Intn(2) == 0 {
		return specialFloats[e.g.Intn(len(specialFloats))]
	}
	for {
		if f := math.Float64frombits(e.g.Next()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

var specialInts = []int64{0, 1, -1, math.MaxInt64, math.MinInt64, math.MaxInt32, 1e9}

func (e envGen) int() int64 {
	switch e.g.Intn(3) {
	case 0:
		return 0
	case 1:
		return specialInts[e.g.Intn(len(specialInts))]
	}
	return int64(e.g.Next())
}

func (e envGen) row() laqy.Row {
	var r laqy.Row
	if n := e.g.Intn(4); n > 0 || e.g.Intn(2) == 0 {
		r.Groups = make([]laqy.GroupValue, n)
		for i := range r.Groups {
			if e.g.Intn(2) == 0 {
				r.Groups[i] = laqy.GroupValue{Str: e.str(), IsString: true}
			} else {
				r.Groups[i] = laqy.GroupValue{Int: e.int()}
			}
		}
	}
	if n := e.g.Intn(4); n > 0 || e.g.Intn(2) == 0 {
		r.Aggs = make([]laqy.AggValue, n)
		for i := range r.Aggs {
			a := laqy.AggValue{Value: e.float(), Exact: e.g.Intn(2) == 0}
			if e.g.Intn(2) == 0 {
				a.StdErr = e.float()
			}
			if e.g.Intn(2) == 0 {
				a.Support = int(e.int())
			}
			r.Aggs[i] = a
		}
	}
	return r
}

func (e envGen) rows() []laqy.Row {
	if e.g.Intn(4) == 0 {
		return nil
	}
	out := make([]laqy.Row, e.g.Intn(5))
	for i := range out {
		out[i] = e.row()
	}
	return out
}

// envelope draws an Envelope with every omitempty field independently zero
// or not and Stats/Error independently nil or set.
func (e envGen) envelope() Envelope {
	env := Envelope{
		RequestID:    e.str(),
		GroupColumns: e.strs(),
		AggColumns:   e.strs(),
		RowCount:     int(e.int()),
		Approximate:  e.g.Intn(2) == 0,
		Stale:        e.g.Intn(2) == 0,
		Degradations: e.strs(),
	}
	if e.g.Intn(2) == 0 {
		env.Tenant = e.str()
	}
	if e.g.Intn(2) == 0 {
		env.Mode = e.str()
	}
	if e.g.Intn(2) == 0 {
		env.Explain = e.str()
	}
	if e.g.Intn(2) == 0 {
		env.Stats = &WireStats{ScanNS: e.int(), ProcessNS: e.int(), MergeNS: e.int(), TotalNS: e.int(),
			RowsScanned: e.int(), RowsSelected: e.int(), Segments: int(e.int()), SegmentsBuilt: int(e.int()),
			SegmentParallelism: int(e.int()), RowsDropped: e.int()}
	}
	if e.g.Intn(2) == 0 {
		env.Error = &WireError{Code: e.str(), Message: e.str(), RetryAfterMS: e.int()}
	}
	return env
}

// TestEncoderMatchesEncodingJSON is the encoder's property test: over random
// envelopes, rows and NDJSON frames its bytes equal encoding/json's for the
// decode-contract types, and a NaN or ±Inf anywhere is an error on both
// sides (with dst left as it was).
func TestEncoderMatchesEncodingJSON(t *testing.T) {
	e := envGen{rng.NewLehmer64(20251015)}
	kinds := []string{FrameHeader, FrameRow, FrameSummary, "<&>"}
	prefix := []byte("prefix\n")
	for trial := 0; trial < 20000; trial++ {
		env, rows := e.envelope(), e.rows()
		want, err := oracleEnvelope(env, rows)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendEnvelope(bytes.Clone(prefix), &env, rows)
		if err != nil || !bytes.Equal(got, append(bytes.Clone(prefix), want...)) {
			t.Fatalf("trial %d: envelope\n got: %q (%v)\nwant: %q", trial, got, err, want)
		}

		kind, row := kinds[e.g.Intn(len(kinds))], e.row()
		var fenv *Envelope
		if e.g.Intn(2) == 0 {
			fenv = &env
		}
		want, err = oracleFrame(kind, fenv, row)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := appendFrame(nil, kind, fenv, row); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("trial %d: frame\n got: %q (%v)\nwant: %q", trial, got, err, want)
		}

		// One unencodable value, anywhere a float goes.
		if len(rows) == 0 || len(rows[len(rows)-1].Aggs) == 0 {
			continue
		}
		last := rows[len(rows)-1]
		bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[e.g.Intn(3)]
		a := &last.Aggs[e.g.Intn(len(last.Aggs))]
		if e.g.Intn(2) == 0 {
			a.Value = bad
		} else {
			a.StdErr = bad
		}
		if _, err := oracleEnvelope(env, rows); err == nil {
			t.Fatalf("trial %d: encoding/json accepted %v", trial, bad)
		}
		if got, err := appendEnvelope(prefix, &env, rows); err == nil || !bytes.Equal(got, prefix) {
			t.Fatalf("trial %d: encoder accepted %v or kept partial output: %q (%v)", trial, bad, got, err)
		}
		if _, err := appendFrame(nil, FrameRow, nil, last); err == nil {
			t.Fatalf("trial %d: frame encoder accepted %v", trial, bad)
		}
	}
}

// nanResult is an answer one of whose estimates JSON cannot carry.
func nanResult() *laqy.Result {
	row := func(g int64, v float64) laqy.Row {
		return laqy.Row{Groups: []laqy.GroupValue{{Int: g}}, Aggs: []laqy.AggValue{{Value: v, StdErr: 1, Support: 3}}}
	}
	return &laqy.Result{
		GroupColumns: []string{"g"}, AggColumns: []string{"AVG(v)"}, Approximate: true, Mode: laqy.ModeOffline,
		Rows: []laqy.Row{row(1, 10), row(2, math.NaN()), row(3, 30)},
	}
}

// TestUnencodableAnswerIs500: an answer carrying NaN is a 500 internal
// envelope with the request id and a message naming the value, counted as
// a 5xx — not a 200 with an empty body.
func TestUnencodableAnswerIs500(t *testing.T) {
	s, err := New(Config{Tenants: []Tenant{{Name: "acme", DB: tinyDB(t)}}})
	if err != nil {
		t.Fatal(err)
	}
	res := nanResult()
	h := s.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeAnswer(w, http.StatusOK, toEnvelope(laqy.RequestIDFrom(r.Context()), "acme", res), res.Rows)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %q", rec.Code, rec.Body)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length = %q for a %d-byte body", cl, rec.Body.Len())
	}
	var env Envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("decode: %v (%q)", err, rec.Body)
	}
	if env.Error == nil || env.Error.Code != "internal" || !strings.Contains(env.Error.Message, "NaN") {
		t.Errorf("error = %+v, want internal naming NaN", env.Error)
	}
	if env.RequestID == "" || env.RequestID != rec.Header().Get("X-Laqy-Request-Id") {
		t.Errorf("request id %q, header %q", env.RequestID, rec.Header().Get("X-Laqy-Request-Id"))
	}
	if len(env.Rows) != 0 {
		t.Errorf("500 carries %d rows", len(env.Rows))
	}
	if got := s.Metrics().Counters[obs.MSrvResponses5xx]; got != 1 {
		t.Errorf("5xx counter = %d, want 1", got)
	}
}

// TestUnencodableStreamAborts: in NDJSON mode the frames before the
// unencodable row go out, then the stream ends without a summary frame and
// the abort is counted.
func TestUnencodableStreamAborts(t *testing.T) {
	s, err := New(Config{Tenants: []Tenant{{Name: "acme", DB: tinyDB(t)}}})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.streamResult(context.Background(), rec, "req-1", "acme", http.StatusOK, nanResult())
	lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d frames, want header + 1 row:\n%s", len(lines), rec.Body)
	}
	for i, kind := range []string{FrameHeader, FrameRow} {
		var f StreamFrame
		if err := json.Unmarshal([]byte(lines[i]), &f); err != nil || f.Kind != kind {
			t.Errorf("frame %d = %q (%v), want kind %q", i, lines[i], err, kind)
		}
	}
	if got := s.Metrics().Counters[obs.MSrvStreamAborts]; got != 1 {
		t.Errorf("stream aborts = %d, want 1", got)
	}
}

// TestBufferedContentLength: buffered answers are length-framed, not
// chunked, and the length is the body's.
func TestBufferedContentLength(t *testing.T) {
	_, hs := newTestServer(t, Config{Tenants: []Tenant{{Name: "acme", DB: tinyDB(t)}}})
	for _, sql := range []string{"SELECT g, SUM(v) FROM t GROUP BY g", "SELEC"} {
		body, _ := json.Marshal(QueryRequest{SQL: sql})
		resp, err := http.Post(hs.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(raw)) {
			t.Errorf("%q: transfer-encoding %v, content-length %d for %d bytes",
				sql, resp.TransferEncoding, resp.ContentLength, len(raw))
		}
	}
}

// BenchmarkServeHit is one served reuse hit over loopback HTTP: a
// Q1-shape panel query (GROUP BY lo_orderdate, ~2.4k strata, k = 32)
// answered from one warmed stored sample, either the stored range itself
// (repeated: no tightening) or a narrower one (narrowed: tightened through
// the compiled tuple filter). Each op is request, answer encode and reading
// the body; allocs/op counts both ends of the connection.
func BenchmarkServeHit(b *testing.B) {
	db := laqy.Open(laqy.Config{Workers: 1, DefaultK: 32, Seed: 5})
	if err := db.LoadSSB(300_000, 1); err != nil {
		b.Fatal(err)
	}
	_, hs := newTestServer(b, Config{Tenants: []Tenant{{Name: "bench", DB: db}}})
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	q1 := func(lo, hi int64) []byte {
		body, _ := json.Marshal(QueryRequest{SQL: fmt.Sprintf(`SELECT lo_orderdate, SUM(lo_revenue) FROM lineorder
			WHERE lo_intkey BETWEEN %d AND %d GROUP BY lo_orderdate APPROX WITH K 32`, lo, hi)})
		return body
	}
	post := func(b *testing.B, body []byte, buf *bytes.Buffer) {
		resp, err := client.Post(hs.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d, read error %v", resp.StatusCode, err)
		}
	}
	var buf bytes.Buffer
	post(b, q1(0, 59_999), &buf) // warm: the one stored entry
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"repeated", q1(0, 59_999)},
		{"narrowed", q1(15_000, 44_999)},
	} {
		b.Run(c.name, func(b *testing.B) {
			post(b, c.body, &buf)
			var env Envelope
			if err := json.Unmarshal(buf.Bytes(), &env); err != nil || env.Mode != "offline" || env.RowCount < 2000 {
				b.Fatalf("mode %q with %d rows (%v), want an offline hit over ~2.4k strata", env.Mode, env.RowCount, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post(b, c.body, &buf)
			}
			b.ReportMetric(float64(buf.Len())/1024, "resp_KB")
		})
	}
}
