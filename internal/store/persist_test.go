package store

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"laqy/internal/algebra"
	"laqy/internal/approx"
	"laqy/internal/sample"
)

func populatedStore(t *testing.T) *Store {
	t.Helper()
	s := New(0)
	if _, err := s.Put(meta(algebra.NewPredicate().WithRange("key", 0, 9999)),
		makeSample(100, testSchema, 1, 50, 10000)); err != nil {
		t.Fatal(err)
	}
	multi := algebra.NewPredicate().
		With("key", algebra.NewSet(
			algebra.Interval{Lo: 20000, Hi: 24999},
			algebra.Interval{Lo: 30000, Hi: 39999})).
		WithPoint("region", 2)
	if _, err := s.Put(Meta{
		Input: "lineorder⋈date(a=b)", Predicate: multi,
		Schema: testSchema, QCSWidth: 1, K: 50,
	}, makeSample(101, testSchema, 1, 50, 5000)); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSaveLoadRoundtrip(t *testing.T) {
	s := populatedStore(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}

	loaded := New(0)
	if err := loaded.Load(bytes.NewReader(buf.Bytes()), 9); err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 2 {
		t.Fatalf("loaded %d entries", loaded.Len())
	}
	// Loaded entries enter the running byte total at their walked size.
	loaded.mu.Lock()
	walked := walkBytesLocked(t, loaded)
	loaded.mu.Unlock()
	if got := loaded.TotalBytes(); got != walked || got != s.TotalBytes() {
		t.Fatalf("TotalBytes after load = %d, walk = %d, saved store = %d", got, walked, s.TotalBytes())
	}

	// The loaded store answers lookups like the original.
	m := loaded.Lookup("lineorder", testSchema, 1, 10, algebra.NewPredicate().WithRange("key", 100, 200))
	if m == nil || m.Reuse != algebra.ReuseFull {
		t.Fatalf("lookup after load: %+v", m)
	}
	// Weights, strata, and estimates survive.
	orig := s.Lookup("lineorder", testSchema, 1, 10, algebra.NewPredicate().WithRange("key", 100, 200))
	if orig.Entry.Sample.TotalWeight() != m.Entry.Sample.TotalWeight() {
		t.Fatalf("weights differ: %v vs %v",
			orig.Entry.Sample.TotalWeight(), m.Entry.Sample.TotalWeight())
	}
	if orig.Entry.Sample.NumStrata() != m.Entry.Sample.NumStrata() {
		t.Fatal("strata count differs")
	}
	for _, key := range orig.Entry.Sample.Keys() {
		or := orig.Entry.Sample.Stratum(key)
		lr := m.Entry.Sample.Stratum(key)
		if lr == nil || or.Len() != lr.Len() || or.Weight() != lr.Weight() {
			t.Fatalf("stratum %v differs after load", key)
		}
		oe := approx.FromReservoir(or, 2, approx.Sum)
		le := approx.FromReservoir(lr, 2, approx.Sum)
		if math.Abs(oe.Value-le.Value) > 1e-9 {
			t.Fatalf("stratum %v estimate differs: %v vs %v", key, oe.Value, le.Value)
		}
	}
	// The multi-interval predicate roundtrips exactly.
	m2 := loaded.Lookup("lineorder⋈date(a=b)", testSchema, 1, 10,
		algebra.NewPredicate().WithRange("key", 31000, 32000).WithPoint("region", 2))
	if m2 == nil || m2.Reuse != algebra.ReuseFull {
		t.Fatalf("multi-interval predicate lost: %+v", m2)
	}
}

func TestSaveLoadFile(t *testing.T) {
	s := populatedStore(t)
	path := filepath.Join(t.TempDir(), "samples.laqy")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded := New(0)
	if err := loaded.LoadFile(path, 3); err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 2 {
		t.Fatalf("loaded %d entries", loaded.Len())
	}
	if err := loaded.LoadFile(filepath.Join(t.TempDir(), "missing"), 3); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	s := New(0)
	if err := s.Load(strings.NewReader("not a sample store at all"), 1); err == nil {
		t.Fatal("bad magic must error")
	}
	if err := s.Load(strings.NewReader(""), 1); err == nil {
		t.Fatal("empty input must error")
	}
	// Truncated valid prefix.
	orig := populatedStore(t)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{9, 20, buf.Len() / 2, buf.Len() - 3} {
		trunc := New(0)
		if err := trunc.Load(bytes.NewReader(buf.Bytes()[:cut]), 1); err == nil {
			t.Fatalf("truncation at %d bytes must error", cut)
		}
	}
}

func TestLoadedSamplesKeepSamplingCorrectly(t *testing.T) {
	// A restored reservoir must continue admission control correctly: feed
	// more tuples and check the weight grows while capacity holds. A loaded
	// entry is sealed, so its reservoirs are restored from its encoding —
	// the way a coordinator decodes a shard's sample before merging it.
	s := populatedStore(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := New(0)
	if err := loaded.Load(bytes.NewReader(buf.Bytes()), 5); err != nil {
		t.Fatal(err)
	}
	m := loaded.Lookup("lineorder", testSchema, 1, 10, algebra.NewPredicate().WithRange("key", 0, 9999))
	sam, err := DecodeStratified(EncodeStratified(m.Entry.Sample), 5)
	if err != nil {
		t.Fatal(err)
	}
	before := sam.TotalWeight()
	vals := make([]int64, 1000)
	for v := range vals {
		vals[v] = int64(v)
	}
	sam.ConsiderColumns([][]int64{make([]int64, 1000), vals, vals}, 1000)
	if sam.TotalWeight() != before+1000 {
		t.Fatalf("weight after continued sampling = %v, want %v", sam.TotalWeight(), before+1000)
	}
	var zero sample.StratumKey
	if r := sam.Stratum(zero); r.Len() > r.K() {
		t.Fatal("capacity violated after continued sampling")
	}
}

func TestRestoreReservoirValidation(t *testing.T) {
	gen := newTestGen()
	if _, err := sample.RestoreReservoir(0, 1, 0, nil, gen); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, err := sample.RestoreReservoir(4, 2, 10, []int64{1, 2, 3}, gen); err == nil {
		t.Fatal("odd data length must error")
	}
	if _, err := sample.RestoreReservoir(2, 1, 10, []int64{1, 2, 3}, gen); err == nil {
		t.Fatal("over-capacity data must error")
	}
	if _, err := sample.RestoreReservoir(8, 1, 1, []int64{1, 2, 3}, gen); err == nil {
		t.Fatal("weight below tuple count must error")
	}
	r, err := sample.RestoreReservoir(8, 1, 3, []int64{1, 2, 3}, gen)
	if err != nil || r.Len() != 3 || r.Weight() != 3 {
		t.Fatalf("restore failed: %v %v", r, err)
	}
}
