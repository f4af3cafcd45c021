package laqy

import "time"

// QueryOptions consolidates the per-query execution knobs that previously
// had no public surface (or were reachable only through the SQL text or
// Config-wide defaults). Zero values mean "inherit": the DB's configuration
// and the statement's own clauses stay in charge unless an option
// explicitly overrides them.
//
// Construct via the With* functional options on Query/QueryContext:
//
//	res, err := db.Query(sqlText,
//	    laqy.WithTimeout(200*time.Millisecond),
//	    laqy.WithErrorBound(0.05, 0.95))
//
// The wire protocol mirrors Timeout as QueryRequest.TimeoutMS (see
// internal/server).
type QueryOptions struct {
	// Timeout bounds this query's execution, superseding
	// Config.DefaultQueryTimeout. If the context already carries an
	// earlier deadline, the earlier one wins. 0 inherits.
	Timeout time.Duration
	// ErrorBound, when > 0, applies an APPROX ERROR contract to the query:
	// estimates must meet this relative error bound or the engine resizes
	// and ultimately falls back to exact execution. A bound written in the
	// SQL text wins over this option.
	ErrorBound float64
	// Confidence is the confidence level for ErrorBound (default 0.95).
	// A level written in the SQL text wins over this option.
	Confidence float64
}

// QueryOption mutates QueryOptions; pass any number to Query/QueryContext.
type QueryOption func(*QueryOptions)

// WithTimeout bounds the query's execution time, superseding
// Config.DefaultQueryTimeout for this query only. Under deadline pressure
// the governor degrades along the ladder (see docs/GOVERNANCE.md) instead
// of aborting.
func WithTimeout(d time.Duration) QueryOption {
	return func(o *QueryOptions) { o.Timeout = d }
}

// WithErrorBound applies an APPROX ERROR contract: relative error at most
// bound with the given confidence (0 confidence uses the default 0.95).
// Clauses written in the SQL text win over this option.
func WithErrorBound(bound, confidence float64) QueryOption {
	return func(o *QueryOptions) {
		o.ErrorBound = bound
		o.Confidence = confidence
	}
}

// applyOptions folds a QueryOption list into a QueryOptions value.
func applyOptions(opts []QueryOption) QueryOptions {
	var o QueryOptions
	for _, f := range opts {
		if f != nil {
			f(&o)
		}
	}
	return o
}
