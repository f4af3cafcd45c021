package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"laqy/internal/approx"
	"laqy/internal/governor"
	"laqy/internal/rng"
	"laqy/internal/sample"
	"laqy/internal/storage"
)

// segmentedFact splits a buildFact table at the given cuts.
func segmentedFact(t *testing.T, n, groups int, cuts ...int) *storage.Table {
	t.Helper()
	tab, err := storage.SegmentTableAt(buildFact(n, groups, 10), cuts...)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestSegmentedMatchesReferenceWeights proves the N-way merged build is
// weight-identical to the single-reservoir reference (the leaf build run
// over the whole table) over an uneven layout including an
// empty segment: the merge algebra preserves per-stratum weights exactly
// whatever the sharding.
func TestSegmentedMatchesReferenceWeights(t *testing.T) {
	const n, groups, k = 200000, 8, 500
	fact := segmentedFact(t, n, groups, 30000, 30000, 130000)
	if fact.NumSegments() != 4 {
		t.Fatalf("segments = %d", fact.NumSegments())
	}

	seg, stats, err := RunStratifiedExprs(&Query{Fact: fact},
		ExprsFromNames([]string{"f_group", "f_val"}), 1, k, 42, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Segments != 3 || stats.SegmentsBuilt != 3 {
		// The empty segment plans no source.
		t.Fatalf("segments = %d built = %d, want 3/3", stats.Segments, stats.SegmentsBuilt)
	}
	ref, refStats, err := sealed(BuildSegmentSample(&Query{Fact: fact},
		ExprsFromNames([]string{"f_group", "f_val"}), 1, k, 42, 4))
	if err != nil {
		t.Fatal(err)
	}
	if refStats.Segments != 0 {
		t.Fatalf("reference path reported %d segments", refStats.Segments)
	}

	if seg.NumStrata() != ref.NumStrata() || seg.TotalWeight() != ref.TotalWeight() {
		t.Fatalf("strata/weight: %d/%v vs reference %d/%v",
			seg.NumStrata(), seg.TotalWeight(), ref.NumStrata(), ref.TotalWeight())
	}
	ref.ForEach(func(key sample.StratumKey, r *sample.Reservoir) {
		sr := seg.Stratum(key)
		if sr == nil {
			t.Fatalf("stratum %v missing from segmented build", key)
		}
		if sr.Weight() != r.Weight() {
			t.Fatalf("stratum %v weight %v vs reference %v", key, sr.Weight(), r.Weight())
		}
		if sr.Len() != r.Len() {
			t.Fatalf("stratum %v len %d vs reference %d", key, sr.Len(), r.Len())
		}
	})
}

// chiSquareUniform builds the sample `trials` times with distinct seeds,
// buckets every sampled row by its key, and returns the chi-square
// statistic against the uniform expectation.
func chiSquareUniform(t *testing.T, n, trials, buckets int, build func(seed uint64) (*sample.Stratified, Stats, error)) float64 {
	t.Helper()
	counts := make([]int64, buckets)
	total := 0
	for trial := 0; trial < trials; trial++ {
		sam, _, err := build(uint64(1000 + trial*7919))
		if err != nil {
			t.Fatal(err)
		}
		sam.ForEach(func(_ sample.StratumKey, r *sample.Reservoir) {
			for i := 0; i < r.Len(); i++ {
				key := int(r.Tuple(i)[1] / 3) // f_val = key*3
				counts[key*buckets/n]++
				total++
			}
		})
	}
	expected := float64(total) / float64(buckets)
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	return chi2
}

// TestSegmentedBuildChiSquare is the randomized distribution-equivalence
// property: rows sampled by the segment-parallel build (uneven segments,
// one empty) are uniformly distributed over the table, matching the
// single-reservoir reference build. Thresholds are the p≈0.001
// critical values for df = buckets-1, so a biased merge fails decisively
// while seed noise does not.
func TestSegmentedBuildChiSquare(t *testing.T) {
	const n, k, trials, buckets = 30000, 300, 30, 15
	// One stratum so inclusion probability is uniform across the table.
	fact := segmentedFact(t, n, 1, 4000, 4000, 21000)

	exprs := ExprsFromNames([]string{"f_group", "f_val"})
	segmented := func(workers int) func(uint64) (*sample.Stratified, Stats, error) {
		return func(seed uint64) (*sample.Stratified, Stats, error) {
			return RunStratifiedExprs(&Query{Fact: fact}, exprs, 1, k, seed, workers, nil)
		}
	}
	const critical = 40.0 // χ²(df=14) at p≈0.001 is 36.1; headroom for seeds
	if chi2 := chiSquareUniform(t, n, trials, buckets, segmented(2)); chi2 > critical {
		t.Fatalf("segmented build chi-square = %.1f > %.1f: sampling is biased", chi2, critical)
	}
	// The reference: the leaf's single reservoir over the whole table.
	reference := func(seed uint64) (*sample.Stratified, Stats, error) {
		return sealed(BuildSegmentSample(&Query{Fact: fact}, exprs, 1, k, seed, 2))
	}
	if chi2 := chiSquareUniform(t, n, trials, buckets, reference); chi2 > critical {
		t.Fatalf("reference build chi-square = %.1f > %.1f: reference harness is broken", chi2, critical)
	}
	// Serialized segment builds (one worker) go through the same merge.
	if chi2 := chiSquareUniform(t, n, trials, buckets, segmented(1)); chi2 > critical {
		t.Fatalf("serialized segmented build chi-square = %.1f > %.1f", chi2, critical)
	}
}

// growFactTable appends extra rows continuing buildFact's column pattern
// via the storage append path (sealed segments carried forward).
func growFactTable(t *testing.T, fact *storage.Table, n, extra, groups, segRows int) *storage.Table {
	t.Helper()
	grown := make([]*storage.Column, 0, 4)
	for _, c := range fact.Columns() {
		vals := make([]int64, 0, n+extra)
		vals = append(vals, c.Ints...)
		for i := n; i < n+extra; i++ {
			switch c.Name {
			case "f_key":
				vals = append(vals, int64(i))
			case "f_group":
				vals = append(vals, int64(i%groups))
			case "f_dimfk":
				vals = append(vals, int64(i%10))
			case "f_val":
				vals = append(vals, int64(i*3))
			}
		}
		grown = append(grown, &storage.Column{Name: c.Name, Kind: c.Kind, Ints: vals})
	}
	nt, err := storage.AppendColumns(fact, grown, segRows)
	if err != nil {
		t.Fatal(err)
	}
	return nt
}

// TestSegmentedInterleavedAppends drives the Δ-maintenance entry point
// through appends that land mid-layout: build over the base segments,
// append (open segment grows, then spills), Δ-build only the new rows via
// per-segment high-water marks, and merge — estimates must track the grown
// table.
func TestSegmentedInterleavedAppends(t *testing.T) {
	const groups, k = 4, 800
	segRows := storage.DefaultMorselSize
	n := segRows + 2000
	fact, err := storage.Resegment(buildFact(n, groups, 10), segRows)
	if err != nil {
		t.Fatal(err)
	}
	exprs := ExprsFromNames([]string{"f_group", "f_val"})

	base, _, err := RunStratifiedExprs(&Query{Fact: fact}, exprs, 1, k, 11, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	marks := map[int]int{}
	for _, s := range fact.Segments() {
		marks[s.ID()] = s.End()
	}

	// Append enough to grow the open segment to capacity and spill.
	extra := segRows
	grown := growFactTable(t, fact, n, extra, groups, segRows)
	if grown.NumSegments() != 3 {
		t.Fatalf("segments after append = %d, want 3", grown.NumSegments())
	}
	delta, dstats, err := RunStratifiedExprs(&Query{Fact: grown}, exprs, 1, k, 13, 2, marks)
	if err != nil {
		t.Fatal(err)
	}
	if got := delta.TotalWeight(); got != float64(extra) {
		t.Fatalf("Δ weight = %v, want %d (only appended rows rescanned)", got, extra)
	}
	if dstats.Segments != 2 {
		// The grown open segment's tail plus the spill segment.
		t.Fatalf("Δ segments = %d, want 2", dstats.Segments)
	}

	merged, err := sample.MergeStratified(base, delta, rng.NewLehmer64(23), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.TotalWeight(); got != float64(n+extra) {
		t.Fatalf("merged weight = %v, want %d", got, n+extra)
	}
	exact, _, err := RunExact(&Query{Fact: grown}, []string{"f_group"}, sums(Col("f_val")), 2)
	if err != nil {
		t.Fatal(err)
	}
	merged.ForEach(func(key sample.StratumKey, r *sample.Reservoir) {
		got := approx.FromReservoir(r, 1, approx.Sum).Value
		if want, _ := exact.Value(key, 0); approx.RelativeError(got, want) > 0.10 {
			t.Fatalf("group %v estimate %.0f vs exact %.0f", key, got, want)
		}
	})

	// A second pass with up-to-date marks is an empty delta.
	for _, s := range grown.Segments() {
		marks[s.ID()] = s.End()
	}
	empty, _, err := RunStratifiedExprs(&Query{Fact: grown}, exprs, 1, k, 17, 2, marks)
	if err != nil {
		t.Fatal(err)
	}
	if empty.TotalWeight() != 0 {
		t.Fatalf("covered table produced Δ weight %v", empty.TotalWeight())
	}
}

// TestSegmentWorkerCapAtTotalMorsels pins the PR-5 cap fix: the global
// worker budget caps at the TOTAL morsel count across segments, not any
// single segment's count.
func TestSegmentWorkerCapAtTotalMorsels(t *testing.T) {
	fact := segmentedFact(t, 2000, 4, 1000) // 2 segments, 1 morsel each
	_, stats, err := RunStratifiedExprs(&Query{Fact: fact},
		ExprsFromNames([]string{"f_group", "f_val"}), 1, 50, 3, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 2 {
		t.Fatalf("workers = %d, want 2 (total morsels across segments)", stats.Workers)
	}
}

// TestSegmentMergeReadsBuilders: a segmented build at one worker per
// segment hands every segment's builder to the segment merge as it is. No
// per-segment sample is sealed — copied — before the merge writes the one
// result.
func TestSegmentMergeReadsBuilders(t *testing.T) {
	fact := segmentedFact(t, 4000, 4, 1000, 2000, 3000)
	orig := mergeNFn
	defer func() { mergeNFn = orig }()
	var mu sync.Mutex
	var last []sample.Part // the segment merge is the last merge of the build
	mergeNFn = func(parts []sample.Part, g *rng.Lehmer64, workers int) (sample.Part, error) {
		mu.Lock()
		last = append([]sample.Part(nil), parts...)
		mu.Unlock()
		return orig(parts, g, workers)
	}
	sam, st, err := RunStratifiedExprs(&Query{Fact: fact}, ExprsFromNames([]string{"f_group", "f_val"}), 1, 50, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsBuilt != 4 || sam.TotalWeight() != 4000 {
		t.Fatalf("%d segments built, weight %v", st.SegmentsBuilt, sam.TotalWeight())
	}
	builders := 0
	for _, p := range last {
		if _, ok := p.(*sample.Builder); ok {
			builders++
		}
	}
	if len(last) != st.SegmentsBuilt || builders != st.SegmentsBuilt {
		t.Fatalf("the segment merge read %d builders of %d parts, want one per segment (%d)", builders, len(last), st.SegmentsBuilt)
	}
}

// TestBuildMergesOnlyWorkersThatRan: over one morsel the driver starts one
// worker whatever the worker count, so a four-worker build merges that
// worker's builder alone — no empty builder costs the merge a write — and
// gives the one-worker build's sample.
func TestBuildMergesOnlyWorkersThatRan(t *testing.T) {
	fact := buildFact(20000, 6, 10)
	exprs := ExprsFromNames([]string{"f_group", "f_val"})
	orig := mergeNFn
	defer func() { mergeNFn = orig }()
	mergeNFn = func(parts []sample.Part, g *rng.Lehmer64, workers int) (sample.Part, error) {
		for i, p := range parts {
			if b, ok := p.(*sample.Builder); !ok || b.TotalWeight() == 0 {
				t.Errorf("merge part %d of %d is not a builder that admitted rows", i, len(parts))
			}
		}
		return orig(parts, g, workers)
	}
	one, _, err := sealed(BuildSegmentSample(&Query{Fact: fact}, exprs, 1, 32, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	four, st, err := sealed(BuildSegmentSample(&Query{Fact: fact}, exprs, 1, 32, 5, 4))
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 1 {
		t.Fatalf("%d workers ran over one morsel, want 1", st.Workers)
	}
	if a, b := sampleDigest(one), sampleDigest(four); a != b {
		t.Fatalf("four-worker build digest %s, one-worker %s", b, a)
	}
}

// sealed seals a build's merge input, for tests that read it as a sample.
func sealed(p sample.Part, st Stats, err error) (*sample.Stratified, Stats, error) {
	if err != nil {
		return nil, st, err
	}
	return sample.Seal(p, 1), st, nil
}

// fakeSegment scripts one SegmentSource for coordinator tests: successful
// builds run the real pipeline over a row range of a shared table; failures
// are injected per ID.
type fakeSegment struct {
	id, lo, hi int
	est        int64
	fact       *storage.Table
	fail       error
}

func (f *fakeSegment) ID() int               { return f.id }
func (f *fakeSegment) Version() uint64       { return 1 }
func (f *fakeSegment) Rows() int             { return f.hi - f.lo }
func (f *fakeSegment) Morsels() int          { return 1 }
func (f *fakeSegment) MemEstimate(int) int64 { return f.est }
func (f *fakeSegment) Build(workers int, seed uint64) (sample.Part, Stats, error) {
	if f.fail != nil {
		return nil, Stats{}, f.fail
	}
	q := &Query{Fact: f.fact, ScanFrom: f.lo, ScanTo: f.hi}
	return BuildSegmentSample(q, ExprsFromNames([]string{"f_group", "f_val"}), 1, 50, seed, workers)
}

func fakeSources(fact *storage.Table, fails map[int]error, ests ...int64) []SegmentSource {
	const span = 500
	out := make([]SegmentSource, len(ests))
	for i := range ests {
		out[i] = &fakeSegment{id: i, lo: i * span, hi: (i + 1) * span,
			est: ests[i], fact: fact, fail: fails[i]}
	}
	return out
}

// TestSegmentsDroppedOnDeadline: a DeadlineExceeded from one build stops
// dispatch; the built prefix merges and the tail is reported dropped, not
// failed.
func TestSegmentsDroppedOnDeadline(t *testing.T) {
	fact := buildFact(2000, 4, 10)
	sources := fakeSources(fact, map[int]error{2: context.DeadlineExceeded}, 1, 1, 1, 1)
	q := &Query{Fact: fact}
	sam, stats, err := sealed(runStratifiedSegments(q, sources, 99, 1)) // one worker: serialized, deterministic
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsBuilt != 2 || stats.Segments != 4 {
		t.Fatalf("built %d of %d, want 2 of 4", stats.SegmentsBuilt, stats.Segments)
	}
	if stats.RowsDropped != 1000 {
		t.Fatalf("rows dropped = %d, want 1000", stats.RowsDropped)
	}
	if sam.TotalWeight() != 1000 {
		t.Fatalf("merged weight = %v, want 1000 (built prefix)", sam.TotalWeight())
	}
}

// TestSegmentsDroppedOnBudgetDenial: a memory-budget denial mid-plan drops
// the trailing segments instead of failing the query.
func TestSegmentsDroppedOnBudgetDenial(t *testing.T) {
	fact := buildFact(2000, 4, 10)
	gov := governor.New(governor.Config{QueryMemoryBytes: 1 << 20})
	budget := gov.NewQueryBudget()
	sources := fakeSources(fact, nil, 1, 1, 1<<30, 1) // third segment cannot fit
	q := &Query{Fact: fact, Budget: budget}
	sam, stats, err := sealed(runStratifiedSegments(q, sources, 7, 1))
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsBuilt != 2 {
		t.Fatalf("built = %d, want 2", stats.SegmentsBuilt)
	}
	if stats.RowsDropped != 1000 {
		t.Fatalf("rows dropped = %d, want 1000", stats.RowsDropped)
	}
	if sam.TotalWeight() != 1000 {
		t.Fatalf("merged weight = %v", sam.TotalWeight())
	}
}

// TestSegmentsNothingBuiltPropagatesPressure: when pressure stops dispatch
// before any segment builds, the query fails with the pressure error.
func TestSegmentsNothingBuiltPropagatesPressure(t *testing.T) {
	fact := buildFact(2000, 4, 10)
	gov := governor.New(governor.Config{QueryMemoryBytes: 16})
	sources := fakeSources(fact, nil, 1<<20, 1<<20)
	q := &Query{Fact: fact, Budget: gov.NewQueryBudget()}
	_, _, err := runStratifiedSegments(q, sources, 7, 1)
	if !errors.Is(err, governor.ErrMemoryBudget) {
		t.Fatalf("err = %v, want memory budget", err)
	}
}

// TestSegmentsCancellationAborts: explicit cancellation aborts the whole
// run (no partial answer), unlike deadline pressure.
func TestSegmentsCancellationAborts(t *testing.T) {
	fact := buildFact(2000, 4, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sources := fakeSources(fact, nil, 1, 1)
	q := &Query{Fact: fact, Ctx: ctx}
	_, _, err := runStratifiedSegments(q, sources, 7, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
}

// TestSegmentsDeadlineAlreadyExpiredDegrades: an expired deadline before
// dispatch drops everything → the failure names the deadline.
func TestSegmentsDeadlineAlreadyExpiredDegrades(t *testing.T) {
	fact := buildFact(2000, 4, 10)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	sources := fakeSources(fact, nil, 1, 1)
	q := &Query{Fact: fact, Ctx: ctx}
	_, _, err := runStratifiedSegments(q, sources, 7, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}
