package obs

// Canonical metric names. Instrumented packages reference these constants
// rather than string literals so the catalog in docs/OBSERVABILITY.md stays
// the single source of truth and renames touch one file.
const (
	// Frontend (laqy / internal/sql).
	MParseTotal          = "laqy_parse_total"
	MParseErrors         = "laqy_parse_errors_total"
	MPlanTotal           = "laqy_plan_total"
	MPlanErrors          = "laqy_plan_errors_total"
	MQueriesTotal        = "laqy_queries_total"
	MQueryErrors         = "laqy_query_errors_total"
	MQuerySeconds        = "laqy_query_seconds"
	MErrorRetries        = "laqy_error_retries_total"
	MExactFallbacks      = "laqy_exact_fallbacks_total"
	MModePrefix          = "laqy_queries_mode_" // + mode string + "_total"
	MTracesTotal         = "laqy_traces_total"
	MExplainAnalyzeTotal = "laqy_explain_analyze_total"

	// Lazy sampler (internal/core).
	MSamplerOnline          = "laqy_sampler_online_total"
	MSamplerPartial         = "laqy_sampler_partial_total"
	MSamplerOffline         = "laqy_sampler_offline_total"
	MSamplerSupportFallback = "laqy_sampler_support_fallback_total"
	MDeltaBuilds            = "laqy_sampler_delta_builds_total"
	MSampleMerges           = "laqy_sampler_merges_total"
	MMergeSeconds           = "laqy_sampler_merge_seconds"

	// Sample store (internal/store).
	MStoreLookupFull    = "laqy_store_lookup_full_total"
	MStoreLookupPartial = "laqy_store_lookup_partial_total"
	MStoreLookupMiss    = "laqy_store_lookup_miss_total"
	MStoreEvictions     = "laqy_store_evictions_total"
	MStorePuts          = "laqy_store_puts_total"
	MStoreUpdates       = "laqy_store_updates_total"
	MStoreSamples       = "laqy_store_samples" // gauge
	MStoreBytes         = "laqy_store_bytes"   // gauge
	MStoreSaves         = "laqy_store_saves_total"
	MStoreSaveErrors    = "laqy_store_save_errors_total"
	MStoreLoads         = "laqy_store_loads_total"
	MStoreLoadErrors    = "laqy_store_load_errors_total"
	MStoreSalvaged      = "laqy_store_salvaged_entries_total"
	MStoreSalvageDrops  = "laqy_store_salvage_dropped_total"

	// Execution engine (internal/engine).
	MEngineRuns          = "laqy_engine_runs_total"
	MEngineMorsels       = "laqy_engine_morsels_total"
	MEngineMorselsPruned = "laqy_engine_morsels_pruned_total"   // zone map skipped the morsel
	MEngineMorselsFull   = "laqy_engine_morsels_fullpath_total" // compare-free full-morsel fill
	MEngineMorselsFused  = "laqy_engine_morsels_fused_total"    // folded into aggregates with no selection vector
	MEngineRowsScanned   = "laqy_engine_rows_scanned_total"
	MEngineRowsSelected  = "laqy_engine_rows_selected_total"
	MEngineWallSeconds   = "laqy_engine_wall_seconds"
	MEngineScanSeconds   = "laqy_engine_scan_seconds"

	// Segment-parallel coordinator (engine/segment.go): one "run" per
	// segmented build, with per-segment builds, drops under pressure, and
	// the N-way merge cost broken out.
	MEngineSegmentRuns         = "laqy_engine_segment_runs_total"
	MEngineSegmentBuilds       = "laqy_engine_segment_builds_total"
	MEngineSegmentsDropped     = "laqy_engine_segments_dropped_total"
	MEngineSegmentMergeSeconds = "laqy_engine_segment_merge_seconds"

	// Storage (internal/storage via the facade): the registered tables'
	// footprint, rows×columns×8 (every column is a plain int64 vector).
	// Moved by Register/LoadSSB/Append.
	MStorageLogicalBytes = "laqy_storage_logical_bytes" // gauge

	// Resource governor (internal/governor). See docs/GOVERNANCE.md.
	MGovAdmitted      = "laqy_governor_admitted_total"
	MGovRejected      = "laqy_governor_rejected_total"       // bounded queue full
	MGovQueueTimeouts = "laqy_governor_queue_timeouts_total" // admission wait exceeded
	MGovCanceled      = "laqy_governor_admission_canceled_total"
	MGovWaitSeconds   = "laqy_governor_wait_seconds"
	MGovSlotsTotal    = "laqy_governor_slots_total"        // gauge
	MGovSlotsInUse    = "laqy_governor_slots_in_use"       // gauge
	MGovQueueDepth    = "laqy_governor_queue_depth"        // gauge (queued admissions)
	MGovDegradePrefix = "laqy_governor_degrade_"           // + step string + "_total"
	MGovMemReserved   = "laqy_governor_mem_reserved_bytes" // gauge
	MGovMemDenied     = "laqy_governor_mem_denied_total"

	// Network daemon (internal/server). See docs/SERVING.md.
	MSrvRequests       = "laqy_server_requests_total"
	MSrvResponses2xx   = "laqy_server_responses_2xx_total"
	MSrvResponses4xx   = "laqy_server_responses_4xx_total"
	MSrvResponses5xx   = "laqy_server_responses_5xx_total"
	MSrvDegraded       = "laqy_server_degraded_responses_total" // 206 envelopes
	MSrvPanics         = "laqy_server_panics_total"
	MSrvStreamAborts   = "laqy_server_stream_aborts_total" // client vanished mid-NDJSON
	MSrvDrainRejected  = "laqy_server_drain_rejected_total"
	MSrvInflight       = "laqy_server_inflight_requests" // gauge
	MSrvDraining       = "laqy_server_draining"          // gauge (0/1)
	MSrvRequestSeconds = "laqy_server_request_seconds"
	MSrvSaves          = "laqy_server_sample_saves_total"
	MSrvSaveErrors     = "laqy_server_sample_save_errors_total"
	// Segment-build endpoint (/v1/segment/build) on a shard node.
	MSrvSegmentBuilds     = "laqy_server_segment_builds_total"
	MSrvSegmentBuildFails = "laqy_server_segment_build_errors_total"

	// Distributed shard client (internal/shard). See docs/SHARDING.md and
	// docs/OBSERVABILITY.md.
	MShardAttempts     = "laqy_shard_attempts_total"      // RPC build attempts (incl. retries/hedges)
	MShardRetries      = "laqy_shard_retries_total"       // attempts after the first, same node
	MShardHedges       = "laqy_shard_hedges_total"        // hedged requests launched to a follower
	MShardHedgeWins    = "laqy_shard_hedge_wins_total"    // hedges that answered first
	MShardFailures     = "laqy_shard_failures_total"      // attempts that returned an error
	MShardDropped      = "laqy_shard_dropped_total"       // segments dropped after exhausting retries+hedges
	MShardStale        = "laqy_shard_stale_total"         // 409 version-mismatch rejections observed
	MShardBreakerOpens = "laqy_shard_breaker_opens_total" // circuit-breaker trips
	MShardBreakersOpen = "laqy_shard_breakers_open"       // gauge: nodes currently open/half-open
	MShardBuildSeconds = "laqy_shard_build_seconds"       // end-to-end remote build latency
)
