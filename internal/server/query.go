package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"laqy"
)

// streamFlushEvery bounds buffering in NDJSON mode: rows are flushed to
// the socket in small batches so slow consumers see progress and fast
// ones aren't syscall-bound.
const streamFlushEvery = 64

// handleQuery serves POST /v1/query. The full lifecycle:
//
//	method check → drain check + in-flight registration → body limit +
//	decode → tenant resolve → deadline cap → QueryContext → envelope
//	(buffered JSON or NDJSON stream) or typed wire error.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	reqID := laqy.RequestIDFrom(r.Context())
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeEnvelope(w, http.StatusMethodNotAllowed, &Envelope{
			RequestID: reqID,
			Error:     &WireError{Code: "method_not_allowed", Message: "use POST"},
		})
		return
	}

	// Drain gate and in-flight registration are one critical section:
	// after doShutdown flips draining, no new cancel func can slip into
	// the map unseen, so cancelInflight covers every admitted query.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.met.drainRejected.Inc()
		writeEnvelope(w, http.StatusServiceUnavailable, &Envelope{
			RequestID: reqID,
			Error: &WireError{
				Code:         "draining",
				Message:      "server is draining; retry another replica",
				RetryAfterMS: 1000,
			},
		})
		return
	}
	s.nextID++ // reuse the request counter for in-flight keys
	key := s.nextID
	s.inflight[key] = cancel
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.inflight, key)
		s.mu.Unlock()
	}()

	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeEnvelope(w, http.StatusRequestEntityTooLarge, &Envelope{
				RequestID: reqID,
				Error:     &WireError{Code: "body_too_large", Message: err.Error()},
			})
			return
		}
		writeEnvelope(w, http.StatusBadRequest, &Envelope{
			RequestID: reqID,
			Error:     &WireError{Code: "bad_request", Message: "malformed request body: " + err.Error()},
		})
		return
	}
	if req.V != 0 && req.V != WireVersion {
		writeEnvelope(w, http.StatusBadRequest, &Envelope{
			RequestID: reqID,
			Error:     &WireError{Code: "bad_request", Message: fmt.Sprintf("unsupported request version %d (this server speaks v%d)", req.V, WireVersion)},
		})
		return
	}
	if req.SQL == "" {
		writeEnvelope(w, http.StatusBadRequest, &Envelope{
			RequestID: reqID,
			Error:     &WireError{Code: "bad_request", Message: "sql is required"},
		})
		return
	}

	tenant := req.Tenant
	if tenant == "" {
		tenant = r.Header.Get("X-Laqy-Tenant")
	}
	if tenant == "" {
		tenant = s.cfg.DefaultTenant
	}
	ts, ok := s.tenants[tenant]
	if !ok {
		msg := "unknown tenant: " + tenant
		if tenant == "" {
			msg = "no tenant named and no default configured"
		}
		writeEnvelope(w, http.StatusNotFound, &Envelope{
			RequestID: reqID,
			Error:     &WireError{Code: "unknown_tenant", Message: msg},
		})
		return
	}

	timeout := s.cfg.RequestTimeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	qctx, qcancel := context.WithTimeout(ctx, timeout)
	defer qcancel()

	res, err := ts.db.QueryContext(qctx, req.SQL)
	if err != nil {
		status, werr := mapError(err)
		writeEnvelope(w, status, &Envelope{RequestID: reqID, Tenant: tenant, Error: werr})
		return
	}

	status := http.StatusOK
	if degradedStatus(res) {
		status = http.StatusPartialContent
	}
	if req.Stream || r.URL.Query().Get("stream") == "ndjson" {
		s.streamResult(qctx, w, reqID, tenant, status, res)
		return
	}
	writeAnswer(w, status, toEnvelope(reqID, tenant, res), res.Rows)
}

// streamResult writes the result as NDJSON frames: one header, one line
// per row, one summary. The header and summary both carry the envelope
// metadata (mode, degradations, stats) so a client that only reads the
// first line still learns whether the answer is degraded, and one that
// reads to the end gets the execution stats. Frames are encoded into one
// pooled buffer and sent at each flush point. A client that disconnects
// mid-stream (detected at the next row boundary), a failed write and a row
// JSON cannot carry all abort the stream, counted: it ends after the frames
// before the failure, without a summary frame, which is how clients
// distinguish an aborted stream from a complete one.
func (s *Server) streamResult(ctx context.Context, w http.ResponseWriter, reqID, tenant string, status int, res *laqy.Result) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(status)
	flusher, _ := w.(http.Flusher)
	buf := getBuf()
	defer putBuf(buf)
	b := *buf
	defer func() { *buf = b }()
	// send writes the frames encoded since the last send and flushes them.
	send := func() bool {
		_, err := w.Write(b)
		b = b[:0]
		if flusher != nil {
			flusher.Flush()
		}
		return err == nil
	}
	meta := toEnvelope(reqID, tenant, res)
	complete := func() bool {
		var err error
		if b, err = appendFrame(b, FrameHeader, meta, laqy.Row{}); err != nil || !send() {
			return false
		}
		for i := range res.Rows {
			if ctx.Err() != nil {
				return false // client hung up, or drain canceled us
			}
			if b, err = appendFrame(b, FrameRow, nil, res.Rows[i]); err != nil {
				return false
			}
			if (i+1)%streamFlushEvery == 0 && !send() {
				return false
			}
		}
		b, err = appendFrame(b, FrameSummary, meta, laqy.Row{})
		return err == nil && send()
	}
	if !complete() {
		send() // the frames encoded before the failure
		s.met.streamAborts.Inc()
	}
}
