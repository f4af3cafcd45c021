// Package laqy is an embeddable approximate query processing engine
// implementing LAQy (SIGMOD 2023): efficient and reusable query
// approximations via lazy sampling.
//
// A DB holds in-memory columnar tables and answers a SQL subset. Appending
// APPROX to an aggregation query switches it to sampling-based execution:
// the engine builds a stratified reservoir sample aligned with the query's
// grouping columns and estimates the aggregates with confidence intervals.
// Samples are cached and — this is LAQy's contribution — reused across
// queries even when predicates only partially overlap: for an expanded
// range, only the missing Δ-range is sampled and merged with the stored
// sample, so the cost of approximation tracks the novelty of the workload
// rather than its volume.
//
// Quickstart:
//
//	db := laqy.Open(laqy.Config{})
//	err := db.LoadSSB(1_000_000, 42) // or register your own tables
//	res, err := db.Query(`
//	    SELECT lo_orderdate, SUM(lo_revenue) FROM lineorder
//	    WHERE lo_intkey BETWEEN 0 AND 250000
//	    GROUP BY lo_orderdate APPROX`)
//	for _, row := range res.Rows { ... }
//
// Re-running the query with BETWEEN 0 AND 500000 reuses the first sample
// and only samples the new half of the range (res.Mode == "partial").
package laqy

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"laqy/internal/core"
	"laqy/internal/engine"
	"laqy/internal/governor"
	"laqy/internal/iofault"
	"laqy/internal/obs"
	"laqy/internal/sample"
	"laqy/internal/ssb"
	"laqy/internal/storage"
	"laqy/internal/store"
)

// Config parameterizes a DB.
type Config struct {
	// Name labels this DB instance in diagnostics. A serving layer
	// (cmd/laqyd) sets it to the tenant name so per-tenant log lines and
	// probes are attributable; empty is fine for embedded use.
	Name string
	// Workers is the engine parallelism; 0 uses all CPUs.
	Workers int
	// DefaultK is the per-stratum reservoir capacity used when a query's
	// APPROX clause does not set one. Defaults to 1024.
	DefaultK int
	// StoreBudgetBytes bounds the sample store footprint (0 = unbounded);
	// least-recently-used samples are evicted beyond it.
	StoreBudgetBytes int64
	// Seed makes sampling reproducible across identical query sequences.
	Seed uint64
	// SegmentRows is the target rows per storage segment. Registered and
	// appended tables are laid out in segments of this size; sample builds
	// fan out per segment and merge N-way (see docs/SHARDING.md). 0 uses
	// storage.DefaultSegmentRows (1 Mi rows); values below the morsel size
	// are raised to it. Tables smaller than one segment keep a single
	// segment, preserving the pre-segmentation layout.
	SegmentRows int
	// MinSupport, when > 0, enables the conservative per-stratum support
	// check when reusing tightened samples: reuse falls back to online
	// sampling if any stratum would back an estimate with fewer tuples.
	MinSupport int
	// Oversample is the oversampling factor α ≥ 1: reservoirs are built
	// with capacity ⌈α·K⌉, trading space for a higher chance that future
	// tightened reuses keep enough per-stratum support. Values ≤ 1 mean
	// no oversampling.
	Oversample float64
	// Logger receives leveled diagnostics (e.g. partially corrupt sample
	// stores salvaged on LoadSamples). When unset, LogWarn and above go to
	// the standard logger.
	Logger Logger
	// DisableMetrics turns off the metrics registry: all instruments
	// become no-ops and Metrics()/Handler() report nothing. Tracing
	// (SetTracing, EXPLAIN ANALYZE) is independent and stays available.
	DisableMetrics bool
	// DefaultQueryTimeout applies a deadline to every query whose context
	// does not already carry one (0 = none). Under deadline pressure the
	// planner degrades along the ladder (exact → approximate → serve
	// stored sample) instead of aborting; see docs/GOVERNANCE.md.
	DefaultQueryTimeout time.Duration
	// Governor tunes admission control, memory budgeting, and the
	// degradation ladder; the zero value enables production-safe
	// defaults. See docs/GOVERNANCE.md.
	Governor GovernorConfig
}

func (c Config) withDefaults() Config {
	if c.DefaultK == 0 {
		c.DefaultK = 1024
	}
	return c
}

// DB is an in-memory approximate query processing engine instance. It is
// safe for concurrent queries; table registration must complete before
// querying begins.
type DB struct {
	cfg     Config
	catalog *storage.Catalog
	lazy    *core.LazySampler
	// gov is the resource governor: admission, memory budgets and the
	// deadline degradation ladder.
	gov *governor.Governor

	// reg is the DB's metrics registry (obs.Disabled when
	// Config.DisableMetrics); met caches the frontend instruments.
	reg     *obs.Registry
	met     dbMetrics
	traceOn atomic.Bool

	mu         sync.Mutex
	queryCount uint64

	// plannerMu guards planner, the installed segment planner (nil when
	// every segment builds in-process) — see SetSegmentPlanner.
	plannerMu sync.RWMutex
	planner   engine.SegmentPlanner
}

// Open creates an empty DB.
func Open(cfg Config) *DB {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	if cfg.DisableMetrics {
		reg = obs.Disabled
	}
	db := &DB{
		cfg:     cfg,
		catalog: storage.NewCatalog(),
		lazy:    core.New(store.New(cfg.StoreBudgetBytes), mergeSeed(cfg.Seed)),
		reg:     reg,
		gov:     governor.New(cfg.Governor),
	}
	db.gov.SetObs(reg)
	db.met = newDBMetrics(reg)
	db.lazy.SetObs(reg)
	registerRegistry(reg)
	return db
}

// TableBuilder assembles an in-memory table column by column. All columns
// must have the same length.
type TableBuilder struct {
	name string
	cols []*storage.Column
	err  error
}

// NewTable starts building a table with the given name.
func NewTable(name string) *TableBuilder {
	return &TableBuilder{name: name}
}

// Int64 adds a 64-bit integer column.
func (b *TableBuilder) Int64(name string, values []int64) *TableBuilder {
	if b.err != nil {
		return b
	}
	b.cols = append(b.cols, &storage.Column{Name: name, Kind: storage.KindInt64, Ints: values})
	return b
}

// String adds a dictionary-encoded string column.
func (b *TableBuilder) String(name string, values []string) *TableBuilder {
	if b.err != nil {
		return b
	}
	dict := storage.NewDict(values)
	codes := make([]int64, len(values))
	for i, v := range values {
		code, ok := dict.Code(v)
		if !ok {
			b.err = fmt.Errorf("laqy: value %q missing from its own dictionary", v)
			return b
		}
		codes[i] = code
	}
	b.cols = append(b.cols, &storage.Column{Name: name, Kind: storage.KindString, Ints: codes, Dict: dict})
	return b
}

// Register finalizes a built table into the DB's catalog, laid out in
// segments of Config.SegmentRows rows.
func (db *DB) Register(b *TableBuilder) error {
	if b.err != nil {
		return b.err
	}
	t, err := storage.NewTable(b.name, b.cols...)
	if err != nil {
		return err
	}
	return db.registerTable(t)
}

// registerTable lays a bulk-loaded table out in segments of
// Config.SegmentRows rows, seals it — appends land in a fresh open segment,
// so the loaded segments' boundaries, and with them the per-segment build
// seeds and sample identities, never move — and adds it to the catalog.
func (db *DB) registerTable(t *storage.Table) error {
	t, err := storage.Resegment(t, db.cfg.SegmentRows)
	if err != nil {
		return err
	}
	if t, err = storage.Seal(t); err != nil {
		return err
	}
	if err := db.catalog.Register(t); err != nil {
		return err
	}
	db.reg.Gauge(obs.MStorageLogicalBytes).Add(tableBytes(t, t.NumRows()))
	return nil
}

// tableBytes is the footprint of rows rows of t: every column is a plain
// int64 vector, so rows×columns×8.
func tableBytes(t *storage.Table, rows int) int64 {
	return int64(rows) * int64(len(t.Columns())) * 8
}

// LoadSSB generates and registers the Star Schema Benchmark tables
// (lineorder, date, supplier, part, customer) with the given fact-table
// row count — the dataset of the LAQy paper's evaluation, including the
// shuffled unique lo_intkey column used for selectivity control.
func (db *DB) LoadSSB(lineorderRows int, seed uint64) error {
	data, err := ssb.Generate(ssb.Config{LineorderRows: lineorderRows, Seed: seed})
	if err != nil {
		return err
	}
	for _, t := range []*storage.Table{data.Lineorder, data.Date, data.Supplier, data.Part, data.Customer} {
		if err := db.registerTable(t); err != nil {
			return err
		}
	}
	return nil
}

// Tables returns the registered table names.
func (db *DB) Tables() []string { return db.catalog.Names() }

// Name returns the instance label from Config.Name ("" for unnamed DBs).
func (db *DB) Name() string { return db.cfg.Name }

// ColumnInfo describes one column of a registered table.
type ColumnInfo struct {
	// Name is the column name.
	Name string
	// Type is "int64" or "string".
	Type string
	// DictSize is the number of distinct dictionary values for string
	// columns (0 for integers).
	DictSize int
}

// Describe returns a table's columns in schema order.
func (db *DB) Describe(table string) ([]ColumnInfo, error) {
	t, err := db.catalog.Table(table)
	if err != nil {
		return nil, err
	}
	out := make([]ColumnInfo, 0, len(t.Columns()))
	for _, c := range t.Columns() {
		info := ColumnInfo{Name: c.Name, Type: c.Kind.String()}
		if c.Dict != nil {
			info.DictSize = c.Dict.Size()
		}
		out = append(out, info)
	}
	return out, nil
}

// NumRows returns the row count of a registered table.
func (db *DB) NumRows(table string) (int, error) {
	t, err := db.catalog.Table(table)
	if err != nil {
		return 0, err
	}
	return t.NumRows(), nil
}

// StorageStats reports the byte footprint of the registered tables.
// Columns are stored as plain int64 vectors and nothing else, so the two
// fields are equal.
type StorageStats struct {
	// PhysicalBytes is what a scan of every column reads.
	PhysicalBytes int64
	// LogicalBytes is rows×columns×8, the laqy_storage_logical_bytes gauge.
	LogicalBytes int64
}

// StorageStats returns the storage footprint across all registered tables.
func (db *DB) StorageStats() StorageStats {
	var st StorageStats
	for _, name := range db.catalog.Names() {
		if t, err := db.catalog.Table(name); err == nil {
			st.LogicalBytes += tableBytes(t, t.NumRows())
		}
	}
	st.PhysicalBytes = st.LogicalBytes
	return st
}

// SampleStoreStats reports sample-store reuse telemetry.
type SampleStoreStats struct {
	// Samples is the number of stored samples.
	Samples int
	// Bytes is the estimated store footprint.
	Bytes int64
	// FullReuses, PartialReuses and Misses count lookup outcomes.
	FullReuses, PartialReuses, Misses int64
	// Evictions counts budget-driven sample evictions.
	Evictions int64
}

// SampleStoreStats returns current sample-store telemetry.
func (db *DB) SampleStoreStats() SampleStoreStats {
	st := db.lazy.Store()
	s := st.Stats()
	return SampleStoreStats{
		Samples:       st.Len(),
		Bytes:         st.TotalBytes(),
		FullReuses:    s.Full,
		PartialReuses: s.Partial,
		Misses:        s.Miss,
		Evictions:     s.Evicted,
	}
}

// ClearSamples drops all cached samples (e.g. after a data refresh).
func (db *DB) ClearSamples() { db.lazy.Store().Clear() }

// engineWorkers resolves the configured parallelism.
func (db *DB) engineWorkers() int {
	if db.cfg.Workers > 0 {
		return db.cfg.Workers
	}
	return engine.DefaultWorkers()
}

// SaveSamples persists the sample store to path durably (checksummed
// format, temp file + fsync + atomic rename + directory fsync): a crash at
// any point leaves either the previous store or the new one, never a torn
// state. Samples built in this session then serve as offline samples in
// future sessions via LoadSamples — the durable end of LAQy's
// online/offline continuum. See docs/DURABILITY.md.
func (db *DB) SaveSamples(path string) error {
	return db.lazy.Store().SaveFile(path)
}

// SaveSamplesFS is SaveSamples over an injectable filesystem — the
// module-internal iofault seam the serving layer's persistence loop and
// the connection-chaos harness use to exercise saves under torn writes,
// failed fsyncs, and ENOSPC. Embedded callers want SaveSamples.
func (db *DB) SaveSamplesFS(fsys iofault.FS, path string) error {
	return db.lazy.Store().SaveFileFS(fsys, path)
}

// LoadSamples restores previously saved samples into the store, appending
// to any samples already present. It degrades gracefully on partial
// corruption: entries whose checksums fail are skipped (reported through
// Config.Logger) and the healthy ones are kept — a dropped sample just
// rebuilds lazily online the next time its query runs, so a flipped bit
// on disk never fails startup. Unreadable files (missing, wrong magic)
// still return an error. Use LoadSamplesStrict to reject any corruption.
func (db *DB) LoadSamples(path string) error {
	return db.LoadSamplesFS(iofault.OS, path)
}

// LoadSamplesStrict restores previously saved samples, failing on any
// corruption without loading anything.
func (db *DB) LoadSamplesStrict(path string) error {
	return db.lazy.Store().LoadFile(path, storeFileSeed(db.cfg.Seed))
}

// LoadSamplesFS is LoadSamples (salvage semantics) over an injectable
// filesystem; see SaveSamplesFS for when to use the seam.
func (db *DB) LoadSamplesFS(fsys iofault.FS, path string) error {
	err := db.lazy.Store().SalvageFileFS(fsys, path, storeFileSeed(db.cfg.Seed))
	var corrupt *store.CorruptStoreError
	if errors.As(err, &corrupt) {
		db.logf(LogWarn, "laqy: %v (continuing with %d salvaged samples; dropped samples rebuild lazily online)",
			corrupt, corrupt.Loaded)
		return nil
	}
	return err
}

// logf routes a diagnostic to the leveled logger, falling back to the
// standard logger (LogWarn and above only) when none is configured.
func (db *DB) logf(level LogLevel, format string, args ...any) {
	if db.cfg.Name != "" {
		format = "[" + db.cfg.Name + "] " + format
	}
	if db.cfg.Logger != nil {
		db.cfg.Logger.Logf(level, format, args...)
		return
	}
	if level < LogWarn {
		return
	}
	log.Printf(format, args...)
}

// SampleInfo describes one cached sample for observability.
type SampleInfo struct {
	// Input is the logical sampler input (table or join signature).
	Input string
	// Predicate renders the coverage predicate.
	Predicate string
	// QCS and QVS list the stratification and value columns.
	QCS, QVS []string
	// K is the per-stratum reservoir capacity.
	K int
	// Strata is the number of materialized strata.
	Strata int
	// Rows is the number of sampled tuples held.
	Rows int
	// Weight is the represented input size (tuples covered).
	Weight float64
	// Bytes estimates the memory footprint.
	Bytes int64
}

// Samples lists the cached samples, most useful for debugging reuse
// behaviour (the shell's \samples command).
func (db *DB) Samples() []SampleInfo {
	var out []SampleInfo
	for _, m := range db.lazy.Store().List() {
		info := SampleInfo{
			Input:     m.Meta.Input,
			Predicate: m.Meta.Predicate.String(),
			QCS:       append([]string{}, m.Meta.QCS()...),
			QVS:       append([]string{}, m.Meta.QVS()...),
			K:         m.Meta.K,
			Strata:    m.Sample.NumStrata(),
			Weight:    m.Sample.TotalWeight(),
			Bytes:     m.Bytes,
		}
		m.Sample.ForEach(func(_ sample.StratumKey, r *sample.Reservoir) {
			info.Rows += r.Len()
		})
		out = append(out, info)
	}
	return out
}
