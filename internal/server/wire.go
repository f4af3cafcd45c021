// Wire types and the error contract of laqyd's HTTP/JSON API.
//
// Every response is JSON. Successful queries return an Envelope; failures
// return an Envelope whose Error field is set and whose HTTP status maps
// the typed engine error (docs/SERVING.md has the full contract table):
//
//	400 bad_request          malformed JSON, empty SQL, parse/plan errors
//	404 unknown_tenant       tenant not provisioned on this daemon
//	405 method_not_allowed   non-POST on /v1/query, non-GET on read routes
//	413 body_too_large       request body exceeded the configured limit
//	429 overloaded           governor admission rejection; Retry-After set
//	                         from the EWMA slot-hold estimate
//	503 draining             daemon is shutting down; retry another replica
//	504 timeout              the request's deadline expired mid-query
//	507 memory_budget        the query's transient memory exceeded budget
//	500 internal             handler panic (isolated; carries request_id),
//	                         or an answer JSON cannot carry (NaN/±Inf)
//
// Degraded-but-successful answers (Result.Degradations non-empty or
// Result.Stale) return 206 with the envelope labeling every degradation —
// the BlinkDB bounded-response-time trade made visible on the wire.
package server

import (
	"context"
	"errors"
	"net/http"
	"time"

	"laqy"
	"laqy/internal/governor"
)

// WireVersion is the current request-envelope version. Requests may omit
// the field (treated as the current version for compatibility with
// pre-versioning clients) or pin it to 1; any other value is rejected with
// bad_request, so a future incompatible revision can bump the number
// without silently misreading old clients.
const WireVersion = 1

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	// V is the request-envelope version: 0 (absent) or WireVersion.
	V int `json:"v,omitempty"`
	// SQL is the statement to execute (required).
	SQL string `json:"sql"`
	// Tenant selects the namespace; falls back to the X-Laqy-Tenant
	// header, then the daemon's default tenant.
	Tenant string `json:"tenant,omitempty"`
	// TimeoutMS caps this query's deadline. The effective deadline is
	// min(TimeoutMS, the server's RequestTimeout); 0 means the server's.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Stream selects NDJSON row streaming (equivalent to ?stream=ndjson).
	Stream bool `json:"stream,omitempty"`
}

// WireAgg is one aggregate estimate on the wire.
type WireAgg struct {
	Value   float64 `json:"value"`
	StdErr  float64 `json:"stderr,omitempty"`
	Support int     `json:"support,omitempty"`
	Exact   bool    `json:"exact,omitempty"`
}

// WireRow is one result row: decoded group values then aggregates, in
// envelope column order. The server encodes rows straight from
// laqy.Result.Rows (encode.go); WireRow is their shape for decoding clients.
type WireRow struct {
	Groups []string  `json:"groups"`
	Aggs   []WireAgg `json:"aggs"`
}

// WireStats is the execution breakdown.
type WireStats struct {
	ScanNS       int64 `json:"scan_ns"`
	ProcessNS    int64 `json:"process_ns"`
	MergeNS      int64 `json:"merge_ns"`
	TotalNS      int64 `json:"total_ns"`
	RowsScanned  int64 `json:"rows_scanned"`
	RowsSelected int64 `json:"rows_selected"`
	// Segment-parallel build breakdown (zero for non-segmented runs):
	// segments planned vs built, the fan-out used, and rows in segments
	// dropped under pressure.
	Segments           int   `json:"segments,omitempty"`
	SegmentsBuilt      int   `json:"segments_built,omitempty"`
	SegmentParallelism int   `json:"segment_parallelism,omitempty"`
	RowsDropped        int64 `json:"rows_dropped,omitempty"`
}

// WireError is the typed failure half of the envelope.
type WireError struct {
	// Code is the stable machine-readable error class (see package doc).
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
	// RetryAfterMS carries the governor's backoff suggestion on
	// overloaded/draining errors (also surfaced as the Retry-After header).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// Envelope is the response of POST /v1/query (buffered mode) and the
// header+summary frame content of streaming mode. Envelope and StreamFrame
// are the decode contract; the server writes their bytes with its own
// encoder (encode.go), taking Rows from the engine result.
type Envelope struct {
	RequestID    string     `json:"request_id"`
	Tenant       string     `json:"tenant,omitempty"`
	GroupColumns []string   `json:"group_columns,omitempty"`
	AggColumns   []string   `json:"agg_columns,omitempty"`
	Rows         []WireRow  `json:"rows,omitempty"`
	RowCount     int        `json:"row_count"`
	Mode         string     `json:"mode,omitempty"`
	Approximate  bool       `json:"approximate,omitempty"`
	Stale        bool       `json:"stale,omitempty"`
	Degradations []string   `json:"degradations,omitempty"`
	Stats        *WireStats `json:"stats,omitempty"`
	Explain      string     `json:"explain,omitempty"`
	Error        *WireError `json:"error,omitempty"`
}

// Stream frame kinds: NDJSON responses are one JSON object per line, each
// tagged with a kind so clients can demux without buffering.
const (
	FrameHeader  = "header"  // first line: Envelope metadata, no rows
	FrameRow     = "row"     // one line per result row
	FrameSummary = "summary" // last line: mode, stats, degradations
)

// StreamFrame is one NDJSON line.
type StreamFrame struct {
	Kind string `json:"kind"`
	// Header/summary fields (FrameHeader, FrameSummary).
	*Envelope `json:",omitempty"`
	// Row fields (FrameRow).
	Groups []string  `json:"groups,omitempty"`
	Aggs   []WireAgg `json:"aggs,omitempty"`
}

// toEnvelope converts an engine result's metadata to the wire shape; the
// encoder takes the rows from res itself.
func toEnvelope(reqID, tenant string, res *laqy.Result) *Envelope {
	env := &Envelope{
		RequestID:    reqID,
		Tenant:       tenant,
		GroupColumns: res.GroupColumns,
		AggColumns:   res.AggColumns,
		RowCount:     len(res.Rows),
		Mode:         res.Mode.String(),
		Approximate:  res.Approximate,
		Stale:        res.Stale,
		Explain:      res.Explain,
		Stats: &WireStats{
			ScanNS:             res.Stats.Scan.Nanoseconds(),
			ProcessNS:          res.Stats.Process.Nanoseconds(),
			MergeNS:            res.Stats.Merge.Nanoseconds(),
			TotalNS:            res.Stats.Total.Nanoseconds(),
			RowsScanned:        res.Stats.RowsScanned,
			RowsSelected:       res.Stats.RowsSelected,
			Segments:           res.Stats.Segments,
			SegmentsBuilt:      res.Stats.SegmentsBuilt,
			SegmentParallelism: res.Stats.SegmentParallelism,
			RowsDropped:        res.Stats.RowsDropped,
		},
	}
	for _, d := range res.Degradations {
		env.Degradations = append(env.Degradations, d.String())
	}
	return env
}

// degradedStatus reports whether a successful result should be labeled
// 206: any degradation rung taken, or a stale stored serve.
func degradedStatus(res *laqy.Result) bool {
	return res.Stale || len(res.Degradations) > 0
}

// mapError converts an engine/context error to its wire status + typed
// error. The contract is the robustness surface: a client can branch on
// Code (or the status class) without parsing messages.
func mapError(err error) (int, *WireError) {
	var over *governor.OverloadedError
	switch {
	case errors.As(err, &over):
		return http.StatusTooManyRequests, &WireError{
			Code:         "overloaded",
			Message:      err.Error(),
			RetryAfterMS: over.RetryAfter.Milliseconds(),
		}
	case errors.Is(err, governor.ErrOverloaded):
		// Typed wrapper stripped somewhere: still 429, with a floor backoff.
		return http.StatusTooManyRequests, &WireError{
			Code:         "overloaded",
			Message:      err.Error(),
			RetryAfterMS: 50,
		}
	case errors.Is(err, governor.ErrMemoryBudget):
		return http.StatusInsufficientStorage, &WireError{
			Code:    "memory_budget",
			Message: err.Error(),
		}
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, &WireError{
			Code:    "timeout",
			Message: "query deadline exceeded",
		}
	case errors.Is(err, context.Canceled):
		// The client is gone; the status is best-effort (likely unread).
		return 499, &WireError{
			Code:    "canceled",
			Message: "request canceled",
		}
	default:
		// Parse, plan, and semantic errors: the caller's statement is the
		// problem, not the server's state.
		return http.StatusBadRequest, &WireError{
			Code:    "bad_request",
			Message: err.Error(),
		}
	}
}

// retryAfterSeconds renders a Retry-After header value (whole seconds,
// rounded up, floor 1 — RFC 7231 allows only integral seconds).
func retryAfterSeconds(d time.Duration) int {
	if d <= 0 {
		return 1
	}
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}
