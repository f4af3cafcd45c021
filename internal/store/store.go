// Package store implements LAQy's sample lifetime management (§6.3): a
// store of materialized stratified samples described by their logical
// sampler — Query Input, Query Predicate, QCS and QVS — and the relaxed
// lookup that classifies an incoming request as full reuse, partial reuse
// (with the Δ-predicate to build), or a miss.
//
// Making the predicate and column sets part of the sample description is
// what renders samples malleable: instead of the binary subsumes-or-rebuild
// decision of prior systems, the store returns the best partially matching
// sample and the exact missing range. Storage is budgeted; least-recently-
// used samples are evicted first (the Taster-style policy the paper is
// compatible with).
package store

import (
	"fmt"
	"slices"
	"sync"

	"laqy/internal/algebra"
	"laqy/internal/obs"
	"laqy/internal/sample"
)

// SegmentWatermark is per-segment sample provenance: the sample has
// absorbed the first Rows rows of segment ID, whose content was at
// Version when they were scanned. Δ-maintenance resumes each live segment
// after its mark's Rows: an unchanged segment is skipped without a scan, a
// grown one rescans only [Rows, End), and a segment with no mark, or
// fewer rows than its mark (a re-layout), is rescanned from its start.
// Version is recorded, not compared: tables rebuilt wholesale synthesize
// version-1 segments at any size.
type SegmentWatermark struct {
	// ID is the segment's position in the input table's segment list.
	ID int
	// Version is the segment's content version at scan time.
	Version uint64
	// Rows is how many of the segment's rows the sample has absorbed.
	Rows int
}

// Meta describes a sample's logical sampler: where in the plan it samples
// (Input), under which predicate it was built, and which columns it
// captures (QCS first, then QVS).
type Meta struct {
	// Input identifies the logical sampler placement: the table or
	// join-subplan the sampler consumes. Samples over different inputs are
	// never interchangeable.
	Input string
	// Predicate is the predicate under which the sample was built; the
	// sample represents exactly the rows satisfying it.
	Predicate algebra.Predicate
	// Schema lists the captured columns, stratification (QCS) columns
	// first.
	Schema sample.Schema
	// QCSWidth is the number of leading QCS columns in Schema.
	QCSWidth int
	// K is the per-stratum reservoir capacity.
	K int
	// Segments records per-segment high-water marks over the input's fact
	// table: which of its rows the sample has absorbed. Every writer
	// passes them to Put and Update, the one store format read keeps
	// them, and append maintenance resumes from them.
	Segments []SegmentWatermark
}

// QCS returns the stratification columns.
func (m Meta) QCS() sample.Schema { return m.Schema[:m.QCSWidth] }

// QVS returns the value columns.
func (m Meta) QVS() sample.Schema { return m.Schema[m.QCSWidth:] }

// Entry is a stored sample with bookkeeping for reuse and eviction.
type Entry struct {
	Meta
	// Sample is the materialized stratified sample.
	Sample *sample.Stratified
	// lastUsed is the store's logical clock value at last access.
	lastUsed int64
}

// Match is the result of a store lookup. Meta and Sample are snapshots
// taken under the store lock: stored samples are immutable after
// publication (merges replace the pointer via Update), so the snapshot
// stays valid for concurrent readers even while the entry is updated.
type Match struct {
	// Entry identifies the matched store entry (for Update); nil when
	// Reuse == ReuseNone.
	Entry *Entry
	// Meta is the entry's description at lookup time.
	Meta Meta
	// Sample is the entry's sample at lookup time.
	Sample *sample.Stratified
	// Reuse classifies the match.
	Reuse algebra.Reuse
	// Delta is non-nil for partial reuse: the missing range to Δ-sample.
	Delta *algebra.Delta
}

// Stats counts lookup outcomes, the reuse telemetry behind Figures 9–10.
type Stats struct {
	Full    int64
	Partial int64
	Miss    int64
	Evicted int64
}

// Store is the sample manager. It is safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	entries []*Entry
	budget  int64 // bytes; 0 = unbounded
	total   int64 // sum of the entries' SizeBytes (recorded by the writer of each sealed sample), adjusted wherever entries change
	clock   int64
	stats   Stats

	// met holds cached metric instruments (nil instruments are no-ops, so
	// an unwired store costs one predictable branch per event).
	met storeMetrics
}

// storeMetrics caches the store's obs instruments so the hot lookup path
// never touches the registry map.
type storeMetrics struct {
	lookupFull, lookupPartial, lookupMiss *obs.Counter
	evictions, puts, updates              *obs.Counter
	saves, saveErrors                     *obs.Counter
	loads, loadErrors                     *obs.Counter
	salvaged, salvageDropped              *obs.Counter
	samples, bytes                        *obs.Gauge
}

// New creates a store with the given storage budget in bytes (0 =
// unbounded).
func New(budgetBytes int64) *Store {
	return &Store{budget: budgetBytes}
}

// SetObs wires the store's telemetry into a metrics registry. Call before
// concurrent use (laqy.Open does). A nil registry leaves the store
// unobserved.
func (s *Store) SetObs(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.met = storeMetrics{
		lookupFull:     reg.Counter(obs.MStoreLookupFull),
		lookupPartial:  reg.Counter(obs.MStoreLookupPartial),
		lookupMiss:     reg.Counter(obs.MStoreLookupMiss),
		evictions:      reg.Counter(obs.MStoreEvictions),
		puts:           reg.Counter(obs.MStorePuts),
		updates:        reg.Counter(obs.MStoreUpdates),
		saves:          reg.Counter(obs.MStoreSaves),
		saveErrors:     reg.Counter(obs.MStoreSaveErrors),
		loads:          reg.Counter(obs.MStoreLoads),
		loadErrors:     reg.Counter(obs.MStoreLoadErrors),
		salvaged:       reg.Counter(obs.MStoreSalvaged),
		salvageDropped: reg.Counter(obs.MStoreSalvageDrops),
		samples:        reg.Gauge(obs.MStoreSamples),
		bytes:          reg.Gauge(obs.MStoreBytes),
	}
}

// refreshGaugesLocked publishes the store's current footprint.
func (s *Store) refreshGaugesLocked() {
	s.met.samples.Set(int64(len(s.entries)))
	s.met.bytes.Set(s.total)
}

// Len returns the number of stored samples.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats returns a copy of the lookup counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// compatible reports whether a stored entry can serve a request for the
// given input, schema, QCS and capacity: the input must match, the stored
// QCS must equal the requested one (stratification is not adaptable after
// the fact), the stored schema must capture every requested column, and
// the stored per-stratum capacity must be at least the requested one — a
// k-capacity sample provides the support guarantees of any k' ≤ k, never
// of a larger k' (the basis of error-driven sample resizing).
func compatible(e *Entry, input string, schema sample.Schema, qcsWidth, k int) bool {
	if e.Input != input || e.QCSWidth != qcsWidth || e.K < k {
		return false
	}
	if !e.Schema[:e.QCSWidth].Equal(schema[:qcsWidth]) {
		return false
	}
	for _, col := range schema[qcsWidth:] {
		if e.Schema.Index(col) < 0 {
			return false
		}
	}
	return true
}

// Lookup finds the best stored sample for a request: full reuse wins over
// partial; among partial matches, the one with the smallest missing range
// (least Δ-sampling work) wins. k is the requested per-stratum capacity;
// only samples with at least that capacity match. A nil return means no
// overlapping sample exists and pure online sampling is required. Lookup
// updates the LRU clock of the returned entry and the hit/miss counters.
func (s *Store) Lookup(input string, schema sample.Schema, qcsWidth, k int, pred algebra.Predicate) *Match {
	s.mu.Lock()
	defer s.mu.Unlock()
	var best *Match
	var bestMissing int64
	for _, e := range s.entries {
		if !compatible(e, input, schema, qcsWidth, k) {
			continue
		}
		reuse, delta := algebra.Classify(e.Predicate, pred)
		switch reuse {
		case algebra.ReuseFull:
			s.clock++
			e.lastUsed = s.clock
			s.stats.Full++
			s.met.lookupFull.Inc()
			return &Match{Entry: e, Meta: e.Meta, Sample: e.Sample, Reuse: algebra.ReuseFull}
		case algebra.ReusePartial:
			missing := delta.Missing.Count()
			if best == nil || missing < bestMissing {
				best = &Match{Entry: e, Meta: e.Meta, Sample: e.Sample, Reuse: algebra.ReusePartial, Delta: delta}
				bestMissing = missing
			}
		}
	}
	if best != nil {
		s.clock++
		best.Entry.lastUsed = s.clock
		s.stats.Partial++
		s.met.lookupPartial.Inc()
		return best
	}
	s.stats.Miss++
	s.met.lookupMiss.Inc()
	return nil
}

// Put stores a sample under its metadata, evicting least-recently-used
// entries if the budget is exceeded. It returns the new entry.
func (s *Store) Put(meta Meta, sam *sample.Stratified) (*Entry, error) {
	if sam == nil {
		return nil, fmt.Errorf("store: nil sample")
	}
	if meta.QCSWidth < 0 || meta.QCSWidth > len(meta.Schema) {
		return nil, fmt.Errorf("store: QCS width %d with %d columns", meta.QCSWidth, len(meta.Schema))
	}
	if !sam.Schema().Equal(meta.Schema) || sam.QCSWidth() != meta.QCSWidth {
		return nil, fmt.Errorf("store: sample schema %v/%d does not match meta %v/%d",
			sam.Schema(), sam.QCSWidth(), meta.Schema, meta.QCSWidth)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock++
	e := &Entry{Meta: meta, Sample: sam, lastUsed: s.clock}
	s.entries = append(s.entries, e)
	s.total += sam.SizeBytes()
	s.met.puts.Inc()
	s.enforceBudgetLocked()
	s.refreshGaugesLocked()
	return e, nil
}

// Update replaces an entry's sample, predicate and per-segment watermarks
// (the provenance of the merged sample) after a Δ-merge extended its
// coverage, keeping the entry's LRU position fresh.
func (s *Store) Update(e *Entry, sam *sample.Stratified, pred algebra.Predicate, segs []SegmentWatermark) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if slices.Contains(s.entries, e) { // an entry evicted since its Lookup no longer counts
		s.total += sam.SizeBytes() - e.Sample.SizeBytes()
	}
	e.Sample = sam
	e.Predicate = pred
	e.Segments = segs
	s.clock++
	e.lastUsed = s.clock
	s.met.updates.Inc()
	s.enforceBudgetLocked()
	s.refreshGaugesLocked()
}

// Clear drops all stored samples.
func (s *Store) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries, s.total = nil, 0
	s.refreshGaugesLocked()
}

// TotalBytes returns the store's current estimated footprint.
func (s *Store) TotalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// enforceBudgetLocked evicts LRU entries until within budget. The newest
// entry is never evicted (a sample larger than the whole budget still
// serves its immediate query, matching LAQy's sample-as-you-query model).
func (s *Store) enforceBudgetLocked() {
	if s.budget <= 0 {
		return
	}
	for len(s.entries) > 1 && s.total > s.budget {
		oldest := 0
		var newest int64 = -1
		for _, e := range s.entries {
			if e.lastUsed > newest {
				newest = e.lastUsed
			}
		}
		found := false
		var oldestUsed int64
		for i, e := range s.entries {
			if e.lastUsed == newest {
				continue // protect the most recently used entry
			}
			if !found || e.lastUsed < oldestUsed {
				oldest, oldestUsed, found = i, e.lastUsed, true
			}
		}
		if !found {
			return
		}
		s.total -= s.entries[oldest].Sample.SizeBytes()
		s.entries = append(s.entries[:oldest], s.entries[oldest+1:]...)
		s.stats.Evicted++
		s.met.evictions.Inc()
	}
}

// List returns a consistent snapshot of all entries as Matches (entry
// pointer plus meta and sample captured under the lock), for bulk
// operations such as incremental maintenance.
func (s *Store) List() []Match {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Match, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, Match{Entry: e, Meta: e.Meta, Sample: e.Sample})
	}
	return out
}

// RemoveWhere deletes every entry whose metadata matches pred, returning
// the number removed — used to invalidate samples whose input changed in a
// way maintenance cannot repair.
func (s *Store) RemoveWhere(pred func(Meta) bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.entries[:0]
	removed := 0
	for _, e := range s.entries {
		if pred(e.Meta) {
			removed++
			s.total -= e.Sample.SizeBytes()
		} else {
			kept = append(kept, e)
		}
	}
	s.entries = kept
	s.refreshGaugesLocked()
	return removed
}
