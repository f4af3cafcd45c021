package store

import (
	"bytes"
	"sync"
	"testing"
	"unsafe"

	"laqy/internal/algebra"
	"laqy/internal/obs"
	"laqy/internal/rng"
	"laqy/internal/sample"
)

func makeSample(seed uint64, schema sample.Schema, qcsWidth, k int, n int64) *sample.Stratified {
	s := sample.NewBuilder(schema, qcsWidth, k, rng.NewLehmer64(seed))
	cols := make([][]int64, len(schema))
	for c := range cols {
		cols[c] = make([]int64, n)
		for v := range cols[c] {
			cols[c][v] = int64(v)
			if c == 0 {
				cols[c][v] %= 5
			}
		}
	}
	s.ConsiderColumns(cols, int(n))
	return sample.Seal(s, 1)
}

var testSchema = sample.Schema{"g", "key", "val"}

// walkBytes is the from-scratch reference for the store's running byte
// total: the per-stratum walk of every stored entry (what TotalBytes used to
// do on each call), in sorted stratum order, against which the running sum,
// the List snapshots and the laqy_store_bytes gauge must agree exactly.
// Callers hold s.mu.
func walkBytesLocked(t *testing.T, s *Store) int64 {
	t.Helper()
	var total int64
	for _, e := range s.entries {
		var bytes int64
		e.Sample.ForEach(func(_ sample.StratumKey, r *sample.Reservoir) {
			bytes += int64(r.Len()*r.Width())*8 + 64
		})
		if bytes != e.Sample.SizeBytes() {
			t.Errorf("entry %v: recorded %d bytes, walk %d", e.Predicate, e.Sample.SizeBytes(), bytes)
		}
		total += bytes
	}
	if total != s.total {
		t.Errorf("running total %d, from-scratch walk %d", s.total, total)
	}
	return total
}

func meta(pred algebra.Predicate) Meta {
	return Meta{Input: "lineorder", Predicate: pred, Schema: testSchema, QCSWidth: 1, K: 10}
}

func TestPutValidation(t *testing.T) {
	s := New(0)
	if _, err := s.Put(meta(algebra.NewPredicate()), nil); err == nil {
		t.Fatal("nil sample must error")
	}
	sam := makeSample(1, testSchema, 1, 10, 100)
	bad := meta(algebra.NewPredicate())
	bad.QCSWidth = 2
	if _, err := s.Put(bad, sam); err == nil {
		t.Fatal("QCS width mismatch with sample must error")
	}
	good := meta(algebra.NewPredicate())
	if _, err := s.Put(good, sam); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestLookupFullReuse(t *testing.T) {
	s := New(0)
	pred := algebra.NewPredicate().WithRange("key", 0, 100)
	sam := makeSample(2, testSchema, 1, 10, 100)
	if _, err := s.Put(meta(pred), sam); err != nil {
		t.Fatal(err)
	}
	m := s.Lookup("lineorder", testSchema, 1, 10, algebra.NewPredicate().WithRange("key", 20, 50))
	if m == nil || m.Reuse != algebra.ReuseFull {
		t.Fatalf("match = %+v", m)
	}
	if got := s.Stats(); got.Full != 1 {
		t.Fatalf("stats = %+v", got)
	}
}

func TestLookupPartialReuse(t *testing.T) {
	s := New(0)
	pred := algebra.NewPredicate().WithRange("key", 0, 100)
	if _, err := s.Put(meta(pred), makeSample(3, testSchema, 1, 10, 100)); err != nil {
		t.Fatal(err)
	}
	m := s.Lookup("lineorder", testSchema, 1, 10, algebra.NewPredicate().WithRange("key", 50, 200))
	if m == nil || m.Reuse != algebra.ReusePartial {
		t.Fatalf("match = %+v", m)
	}
	want := algebra.SetOf(algebra.Interval{Lo: 101, Hi: 200})
	if !m.Delta.Missing.Equal(want) {
		t.Fatalf("missing = %v", m.Delta.Missing)
	}
}

func TestLookupPrefersSmallestDelta(t *testing.T) {
	s := New(0)
	// Two overlapping samples; the second needs a smaller delta.
	e1, _ := s.Put(meta(algebra.NewPredicate().WithRange("key", 0, 50)), makeSample(4, testSchema, 1, 10, 100))
	e2, _ := s.Put(meta(algebra.NewPredicate().WithRange("key", 0, 90)), makeSample(5, testSchema, 1, 10, 100))
	_ = e1
	m := s.Lookup("lineorder", testSchema, 1, 10, algebra.NewPredicate().WithRange("key", 0, 100))
	if m == nil || m.Entry != e2 {
		t.Fatal("should pick the sample minimizing delta work")
	}
	if m.Delta.Missing.Count() != 10 {
		t.Fatalf("missing count = %d", m.Delta.Missing.Count())
	}
}

func TestLookupPrefersFullOverPartial(t *testing.T) {
	s := New(0)
	// The first sample only partially overlaps the query; the second
	// fully covers it. Full reuse must win even though the partial match
	// is found first.
	s.Put(meta(algebra.NewPredicate().WithRange("key", 40, 50)), makeSample(6, testSchema, 1, 10, 100))
	full, _ := s.Put(meta(algebra.NewPredicate().WithRange("key", 0, 100)), makeSample(7, testSchema, 1, 10, 100))
	m := s.Lookup("lineorder", testSchema, 1, 10, algebra.NewPredicate().WithRange("key", 45, 55))
	if m == nil || m.Reuse != algebra.ReuseFull || m.Entry != full {
		t.Fatalf("match = %+v", m)
	}
}

func TestLookupMiss(t *testing.T) {
	s := New(0)
	s.Put(meta(algebra.NewPredicate().WithRange("key", 0, 10)), makeSample(8, testSchema, 1, 10, 100))
	if m := s.Lookup("lineorder", testSchema, 1, 10, algebra.NewPredicate().WithRange("key", 500, 600)); m != nil {
		t.Fatalf("disjoint lookup should miss, got %+v", m)
	}
	if m := s.Lookup("other_table", testSchema, 1, 10, algebra.NewPredicate().WithRange("key", 0, 5)); m != nil {
		t.Fatal("different input should miss")
	}
	if got := s.Stats(); got.Miss != 2 {
		t.Fatalf("stats = %+v", got)
	}
}

func TestLookupSchemaCompatibility(t *testing.T) {
	s := New(0)
	s.Put(meta(algebra.NewPredicate().WithRange("key", 0, 100)), makeSample(9, testSchema, 1, 10, 100))
	// Different QCS column: incompatible.
	if m := s.Lookup("lineorder", sample.Schema{"other", "key", "val"}, 1, 10,
		algebra.NewPredicate().WithRange("key", 0, 5)); m != nil {
		t.Fatal("different QCS must not match")
	}
	// Requesting a column the sample did not capture: incompatible.
	if m := s.Lookup("lineorder", sample.Schema{"g", "key", "uncaptured"}, 1, 10,
		algebra.NewPredicate().WithRange("key", 0, 5)); m != nil {
		t.Fatal("uncaptured QVS column must not match")
	}
	// Requesting a subset of captured QVS columns: compatible.
	if m := s.Lookup("lineorder", sample.Schema{"g", "key"}, 1, 10,
		algebra.NewPredicate().WithRange("key", 0, 5)); m == nil {
		t.Fatal("subset of captured columns should match")
	}
}

func TestUpdateExpandsPredicate(t *testing.T) {
	s := New(0)
	e, _ := s.Put(meta(algebra.NewPredicate().WithRange("key", 0, 50)), makeSample(10, testSchema, 1, 10, 100))
	bigger := makeSample(11, testSchema, 1, 10, 200)
	s.Update(e, bigger, algebra.NewPredicate().WithRange("key", 0, 100), 0)
	m := s.Lookup("lineorder", testSchema, 1, 10, algebra.NewPredicate().WithRange("key", 60, 90))
	if m == nil || m.Reuse != algebra.ReuseFull {
		t.Fatalf("updated entry should now fully cover; got %+v", m)
	}
	if m.Entry.Sample != bigger {
		t.Fatal("sample not replaced")
	}
}

func TestRemoveAndClear(t *testing.T) {
	s := New(0)
	s.Put(meta(algebra.NewPredicate()), makeSample(12, testSchema, 1, 10, 100))
	if n := s.RemoveWhere(func(Meta) bool { return true }); n != 1 || s.Len() != 0 {
		t.Fatalf("RemoveWhere removed %d, left %d", n, s.Len())
	}
	s.Put(meta(algebra.NewPredicate()), makeSample(13, testSchema, 1, 10, 100))
	s.Clear()
	if s.Len() != 0 {
		t.Fatal("Clear failed")
	}
}

func TestBudgetEviction(t *testing.T) {
	// Each sample: 5 strata * up to 10 tuples * 3 cols * 8 bytes + overhead.
	perEntry := makeSample(14, testSchema, 1, 10, 1000).SizeBytes()

	s := New(perEntry * 2)
	reg := obs.NewRegistry()
	s.SetObs(reg)
	// The running total, the gauge and TotalBytes all read what a
	// from-scratch walk computes, after every kind of change.
	checkBytes := func(step string) {
		t.Helper()
		s.mu.Lock()
		want := walkBytesLocked(t, s)
		s.mu.Unlock()
		if got := s.TotalBytes(); got != want {
			t.Fatalf("%s: TotalBytes = %d, walk = %d", step, got, want)
		}
		if got := reg.Gauge(obs.MStoreBytes).Value(); got != want {
			t.Fatalf("%s: %s = %d, walk = %d", step, obs.MStoreBytes, got, want)
		}
		var listed int64
		for _, m := range s.List() {
			listed += m.Sample.SizeBytes()
		}
		if listed != want {
			t.Fatalf("%s: List bytes = %d, walk = %d", step, listed, want)
		}
	}
	a, _ := s.Put(meta(algebra.NewPredicate().WithRange("key", 0, 10)), makeSample(15, testSchema, 1, 10, 1000))
	s.Put(meta(algebra.NewPredicate().WithRange("key", 20, 30)), makeSample(16, testSchema, 1, 10, 1000))
	// Touch a so b becomes LRU.
	if m := s.Lookup("lineorder", testSchema, 1, 10, algebra.NewPredicate().WithRange("key", 0, 5)); m == nil || m.Entry != a {
		t.Fatal("expected full reuse of a")
	}
	// Adding a third sample must evict b (LRU), not a, and never the new one.
	c, _ := s.Put(meta(algebra.NewPredicate().WithRange("key", 40, 50)), makeSample(17, testSchema, 1, 10, 1000))
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 after eviction", s.Len())
	}
	if m := s.Lookup("lineorder", testSchema, 1, 10, algebra.NewPredicate().WithRange("key", 20, 25)); m != nil {
		t.Fatal("b should have been evicted")
	}
	if m := s.Lookup("lineorder", testSchema, 1, 10, algebra.NewPredicate().WithRange("key", 0, 5)); m == nil {
		t.Fatal("a should have survived")
	}
	if m := s.Lookup("lineorder", testSchema, 1, 10, algebra.NewPredicate().WithRange("key", 40, 45)); m == nil || m.Entry != c {
		t.Fatal("newest entry must never be evicted")
	}
	if got := s.Stats(); got.Evicted != 1 {
		t.Fatalf("stats = %+v", got)
	}
	checkBytes("after eviction")
	if got := s.TotalBytes(); got != 2*perEntry {
		t.Fatalf("TotalBytes = %d, want two entries of %d", got, perEntry)
	}

	// Update swaps in a smaller sample: the total follows, and growing it
	// back past the budget evicts the other entry, never the updated one.
	s.Update(a, makeSample(18, testSchema, 1, 4, 1000), a.Predicate, 0)
	checkBytes("after shrinking Update")
	if s.Len() != 2 {
		t.Fatalf("Len = %d after a shrinking Update", s.Len())
	}
	s.Update(a, makeSample(19, testSchema, 1, 15, 1000), a.Predicate, 0)
	checkBytes("after growing Update")
	if s.Len() != 1 || s.List()[0].Entry != a {
		t.Fatalf("growing Update kept %d entries; the updated one must survive alone", s.Len())
	}
	// An Update through a stale handle (c was just evicted) is not counted.
	s.Update(c, makeSample(21, testSchema, 1, 10, 1000), c.Predicate, 0)
	checkBytes("after Update of an evicted entry")

	dPred := algebra.NewPredicate().WithRange("key", 60, 70)
	s.Put(meta(dPred), makeSample(22, testSchema, 1, 2, 1000))
	checkBytes("after Put")
	if n := s.RemoveWhere(func(m Meta) bool { return m.Predicate.Equal(dPred) }); n != 1 {
		t.Fatalf("RemoveWhere removed %d", n)
	}
	checkBytes("after removing it")
	s.Put(meta(algebra.NewPredicate().WithRange("key", 80, 90)), makeSample(23, testSchema, 1, 2, 1000))
	if n := s.RemoveWhere(func(m Meta) bool { return m.K == 10 }); n != 2 {
		t.Fatalf("RemoveWhere removed %d", n)
	}
	checkBytes("after RemoveWhere")
	s.Clear()
	checkBytes("after Clear")
	if s.TotalBytes() != 0 {
		t.Fatalf("TotalBytes = %d after Clear", s.TotalBytes())
	}
}

func TestUnboundedBudgetNeverEvicts(t *testing.T) {
	s := New(0)
	for i := uint64(0); i < 20; i++ {
		lo := int64(i) * 100
		s.Put(meta(algebra.NewPredicate().WithRange("key", lo, lo+50)), makeSample(20+i, testSchema, 1, 10, 500))
	}
	if s.Len() != 20 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.TotalBytes() <= 0 {
		t.Fatal("TotalBytes should be positive")
	}
}

func TestMetaQCSQVS(t *testing.T) {
	m := meta(algebra.NewPredicate())
	if !m.QCS().Equal(sample.Schema{"g"}) {
		t.Fatalf("QCS = %v", m.QCS())
	}
	if !m.QVS().Equal(sample.Schema{"key", "val"}) {
		t.Fatalf("QVS = %v", m.QVS())
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New(0)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				lo := int64(w*1000 + i)
				s.Put(meta(algebra.NewPredicate().WithRange("key", lo, lo)), makeSample(uint64(w*100+i), testSchema, 1, 10, 50))
				s.Lookup("lineorder", testSchema, 1, 10, algebra.NewPredicate().WithRange("key", lo, lo))
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if s.Len() != 400 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func newTestGen() *rng.Lehmer64 { return rng.NewLehmer64(1) }

// TestConcurrentEvictionNeverDropsNewest is a concurrency property test
// for the eviction invariants under Puts racing budget enforcement:
//
//  1. After every operation the store is within budget, or holds exactly
//     one (oversized) entry.
//  2. The newest entry is never the one evicted: if a worker's
//     freshly-put entry is gone, something strictly newer must have
//     displaced it — an eviction that removed the newest-at-that-moment
//     entry while older ones survived is a violation.
//
// The budget fits ~3 entries while 8 workers hammer Puts and Lookups, so
// enforcement runs on nearly every operation. Run under -race via the
// stress target.
func TestConcurrentEvictionNeverDropsNewest(t *testing.T) {
	perEntry := makeSample(20, testSchema, 1, 10, 1000).SizeBytes()
	s := New(perEntry * 3)

	const workers = 8
	const putsPerWorker = 200

	// Checker: between operations (under s.mu) the budget invariant must
	// hold exactly — enforcement runs before the lock is released.
	stop := make(chan struct{})
	checkerDone := make(chan struct{})
	go func() {
		defer close(checkerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.mu.Lock()
			total := walkBytesLocked(t, s)
			n := len(s.entries)
			budget := s.budget
			s.mu.Unlock()
			if total > budget && n > 1 {
				t.Errorf("budget invariant violated: %d entries, %d bytes > budget %d", n, total, budget)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < putsPerWorker; i++ {
				lo := int64(w*putsPerWorker + i)
				e, err := s.Put(meta(algebra.NewPredicate().WithRange("key", lo, lo)),
					makeSample(uint64(w*1000+i), testSchema, 1, 10, 1000))
				if err != nil {
					t.Errorf("worker %d: Put: %v", w, err)
					return
				}
				// Newest-survives detector: if our entry is already gone,
				// a strictly newer one must exist among the survivors.
				s.mu.Lock()
				present := false
				var maxUsed int64 = -1
				for _, q := range s.entries {
					if q == e {
						present = true
					}
					if q.lastUsed > maxUsed {
						maxUsed = q.lastUsed
					}
				}
				s.mu.Unlock()
				if !present && maxUsed < e.lastUsed {
					t.Errorf("worker %d: newest entry (clock %d) evicted; survivors max clock %d", w, e.lastUsed, maxUsed)
					return
				}
				// Lookups shuffle LRU order to vary which entry eviction
				// must protect.
				if i%3 == 0 {
					s.Lookup("lineorder", testSchema, 1, 10,
						algebra.NewPredicate().WithRange("key", lo, lo))
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-checkerDone

	if s.Len() < 1 {
		t.Fatal("store drained to zero entries")
	}
	if got := s.Stats(); got.Evicted == 0 {
		t.Fatal("no evictions happened; the test exerted no budget pressure")
	}
	if total := s.TotalBytes(); total > perEntry*3 {
		t.Fatalf("final size %d exceeds budget %d", total, perEntry*3)
	}
}

// checkSealed fails t unless sam is packed: its stratum headers lie in key
// order in one slab, stratum pos's tuples start where stratum pos−1's end,
// no stratum has spare capacity, and sealing it again returns it as it is.
func checkSealed(t *testing.T, what string, sam *sample.Stratified) {
	t.Helper()
	if sam.NumStrata() < 2 {
		t.Fatalf("%s: %d strata, want several", what, sam.NumStrata())
	}
	var header, tuples uintptr // where the next header and tuples must start
	for pos := range sam.NumStrata() {
		_, r := sam.At(pos)
		if at := uintptr(unsafe.Pointer(r)); pos > 0 && at != header {
			t.Fatalf("%s: stratum %d's header is not next to stratum %d's", what, pos, pos-1)
		}
		header = uintptr(unsafe.Pointer(r)) + unsafe.Sizeof(*r)
		tu := r.Tuples()
		if cap(tu) != len(tu) {
			t.Fatalf("%s: stratum %d holds %d ints in capacity %d", what, pos, len(tu), cap(tu))
		}
		if len(tu) == 0 {
			continue
		}
		if at := uintptr(unsafe.Pointer(&tu[0])); tuples != 0 && at != tuples {
			t.Fatalf("%s: stratum %d's tuples do not start where the previous stratum's end", what, pos)
		}
		tuples = uintptr(unsafe.Pointer(&tu[0])) + uintptr(len(tu))*8
	}
	if sample.Seal(sam, 1) != sam {
		t.Fatalf("%s: sealing a sealed sample copied it", what)
	}
}

// TestStoredSamplesAreSealedSlabs: whatever reaches the store — a build
// through Put, a merge through Update, a file through Load — is stored
// sealed, in the packed layout, with the byte count the writer recorded.
func TestStoredSamplesAreSealedSlabs(t *testing.T) {
	s := New(0)
	e, err := s.Put(meta(algebra.NewPredicate().WithRange("key", 0, 999)), makeSample(1, testSchema, 1, 10, 1000))
	if err != nil {
		t.Fatal(err)
	}
	checkSealed(t, "Put", e.Sample)
	delta := makeSample(2, testSchema, 1, 10, 300)
	merged, err := sample.MergeStratified(e.Sample.Fork(), delta, rng.NewLehmer64(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	s.Update(e, merged, algebra.NewPredicate().WithRange("key", 0, 1299), 0)
	checkSealed(t, "Update", e.Sample)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := New(0)
	if err := loaded.Load(&buf, 4); err != nil {
		t.Fatal(err)
	}
	for _, m := range loaded.List() {
		checkSealed(t, "Load", m.Sample)
	}
	s.mu.Lock()
	walkBytesLocked(t, s)
	s.mu.Unlock()
	loaded.mu.Lock()
	walkBytesLocked(t, loaded)
	loaded.mu.Unlock()
}
