package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"laqy"
	"laqy/internal/shard"
)

// handleSegmentBuild serves POST /v1/segment/build: the shard side of
// distributed segments (docs/SHARDING.md, "Distributed"). A remote
// coordinator posts a laqy.SegmentBuildSpec; this daemon replays the
// per-segment stratified build against its own catalog and answers with
// the serialized partial reservoir — the versioned, CRC-protected frame
// the coordinator's shard.Pool decodes and merges.
//
// The lifecycle mirrors handleQuery: method check → drain gate +
// in-flight registration → body limit + decode → shard-ownership gate →
// tenant resolve → deadline cap → BuildSegment → binary frame or typed
// wire error. Errors speak the same envelope as /v1/query, with one
// addition: a segment version mismatch maps to 409 "shard_stale" so the
// coordinator can distinguish "re-plan" from "retry".
func (s *Server) handleSegmentBuild(w http.ResponseWriter, r *http.Request) {
	reqID := laqy.RequestIDFrom(r.Context())
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeEnvelope(w, http.StatusMethodNotAllowed, &Envelope{
			RequestID: reqID,
			Error:     &WireError{Code: "method_not_allowed", Message: "use POST"},
		})
		return
	}

	// Same critical section as handleQuery: the drain gate and the
	// in-flight registration are atomic, so cancelInflight covers every
	// admitted build.
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
	s.nextID++
	key := s.nextID
	s.inflight[key] = cancel
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.inflight, key)
		s.mu.Unlock()
	}()

	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var spec laqy.SegmentBuildSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
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
			Error:     &WireError{Code: "bad_request", Message: "malformed build spec: " + err.Error()},
		})
		return
	}

	// Shard-ownership gate (-shard-of i/n): a daemon serving one shard of
	// the static modulo distribution refuses segments it doesn't own, so a
	// misrouted coordinator fails fast instead of double-building.
	if s.cfg.ShardCount > 1 {
		if own := spec.Segment % s.cfg.ShardCount; own != s.cfg.ShardIndex {
			writeEnvelope(w, http.StatusMisdirectedRequest, &Envelope{
				RequestID: reqID,
				Error: &WireError{
					Code: "wrong_shard",
					Message: fmt.Sprintf("segment %d belongs to shard %d/%d; this daemon serves shard %d",
						spec.Segment, own, s.cfg.ShardCount, s.cfg.ShardIndex),
				},
			})
			return
		}
	}

	tenant := r.Header.Get("X-Laqy-Tenant")
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

	qctx, qcancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer qcancel()

	s.met.segmentBuilds.Inc()
	sam, stats, err := ts.db.BuildSegment(qctx, spec)
	if err != nil {
		s.met.segmentBuildFails.Inc()
		var stale *laqy.SegmentStaleError
		if errors.As(err, &stale) {
			writeEnvelope(w, http.StatusConflict, &Envelope{
				RequestID: reqID,
				Tenant:    tenant,
				Error:     &WireError{Code: "shard_stale", Message: err.Error()},
			})
			return
		}
		status, werr := mapError(err)
		writeEnvelope(w, status, &Envelope{RequestID: reqID, Tenant: tenant, Error: werr})
		return
	}

	frame := shard.EncodeFrame(sam, stats)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Content-Length", fmt.Sprintf("%d", len(frame)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(frame); err != nil {
		// Coordinator hung up mid-frame; the CRC protects it from the
		// truncation, nothing useful to do here.
		s.met.streamAborts.Inc()
	}
}
