package sample

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"laqy/internal/rng"
)

func newGen(seed uint64) *rng.Lehmer64 { return rng.NewLehmer64(seed) }

// fill admits lo..hi-1 to the width-1 reservoir r in one batch.
func fill(r *Reservoir, lo, hi int64) {
	admit(r, [][]int64{iota64(lo, hi)}, int(hi-lo))
}

func TestReservoirNotFullKeepsEverything(t *testing.T) {
	r := NewReservoir(100, 1, newGen(1))
	fill(r, 0, 40)
	if r.Full() {
		t.Fatal("40 < 100 should not be full")
	}
	if r.Len() != 40 || r.Weight() != 40 {
		t.Fatalf("Len=%d Weight=%v", r.Len(), r.Weight())
	}
	seen := map[int64]bool{}
	for i := 0; i < r.Len(); i++ {
		seen[r.Tuple(i)[0]] = true
	}
	for v := int64(0); v < 40; v++ {
		if !seen[v] {
			t.Fatalf("value %d lost before reservoir was full", v)
		}
	}
}

func TestReservoirCapacityRespected(t *testing.T) {
	r := NewReservoir(50, 1, newGen(2))
	fill(r, 0, 10000)
	if r.Len() != 50 {
		t.Fatalf("Len = %d, want 50", r.Len())
	}
	if r.Weight() != 10000 {
		t.Fatalf("Weight = %v, want 10000", r.Weight())
	}
	// All stored values must come from the input.
	for i := 0; i < r.Len(); i++ {
		v := r.Tuple(i)[0]
		if v < 0 || v >= 10000 {
			t.Fatalf("foreign tuple %d in reservoir", v)
		}
	}
}

func TestReservoirUniformInclusion(t *testing.T) {
	// Every input position should be included with probability k/n.
	// Run many independent trials and check per-decile inclusion counts.
	const k, n, trials = 20, 1000, 400
	counts := make([]int, 10)
	for trial := 0; trial < trials; trial++ {
		r := NewReservoir(k, 1, newGen(uint64(trial)+10))
		fill(r, 0, n)
		for i := 0; i < r.Len(); i++ {
			counts[r.Tuple(i)[0]*10/n]++
		}
	}
	expected := float64(trials*k) / 10
	for d, c := range counts {
		// Binomial sd ≈ sqrt(E) here; allow 5 sigma.
		if math.Abs(float64(c)-expected) > 5*math.Sqrt(expected) {
			t.Fatalf("decile %d included %d times, expected ~%.0f (bias by position)", d, c, expected)
		}
	}
}

func TestReservoirWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong tuple width")
		}
	}()
	addRow(NewBuilder(Schema{"a", "b"}, 0, 10, newGen(1)), 1)
}

func TestNewReservoirValidation(t *testing.T) {
	for _, tc := range []struct{ k, w int }{{0, 1}, {-1, 1}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewReservoir(%d,%d) should panic", tc.k, tc.w)
				}
			}()
			NewReservoir(tc.k, tc.w, newGen(1))
		}()
	}
}

// TestReservoirClone: a stratum only one merge input holds — Algorithm 2's
// case of a single defined reservoir — reaches the result as a whole copy:
// tuples, weight and admission state (generator, skip-ahead, draw count)
// in storage of the result's own. Admitting into the copy (restored into a
// builder) leaves the original as it was, and the original, given the same rows, then admits
// exactly as the copy did.
func TestReservoirClone(t *testing.T) {
	s := NewBuilder(Schema{"v"}, 0, 10, newGen(3))
	s.ConsiderColumns([][]int64{iota64(0, 100)}, 100)
	c, err := MergeStratified(s, NewBuilder(Schema{"v"}, 0, 10, newGen(4)), newGen(5), 1)
	if err != nil {
		t.Fatal(err)
	}
	r, cr := s.Stratum(StratumKey{}), c.Stratum(StratumKey{})
	if !reflect.DeepEqual(*cr, *r) {
		t.Fatalf("copy %+v, want %+v", *cr, *r)
	}
	if &cr.data[0] == &r.data[0] {
		t.Fatal("the copy shares the original's tuple storage")
	}
	was := *r
	was.data = slices.Clone(r.data)
	rows := [][]int64{iota64(-500, 0)}
	cb := NewBuilder(Schema{"v"}, 0, 10, nil) // admits on the copy's storage
	if err := cb.Restore(StratumKey{}, cr); err != nil {
		t.Fatal(err)
	}
	cb.ConsiderColumns(rows, 500)
	if cr = cb.Stratum(StratumKey{}); cr.Weight() == r.Weight() {
		t.Fatal("admission into the copy did not run")
	}
	if !reflect.DeepEqual(*r, was) {
		t.Fatal("admission into the copy changed the original")
	}
	s.ConsiderColumns(rows, 500)
	if r = s.Stratum(StratumKey{}); !reflect.DeepEqual(*cr, *r) {
		t.Fatalf("after the same rows the original is %+v, the copy %+v", *r, *cr)
	}
}

// keepFunc adapts a per-tuple predicate to TupleSelector; the product's one
// selector is expr.TupleFilter, which this package cannot import.
type keepFunc func(tuple []int64) bool

func (f keepFunc) SelectTuples(data []int64, width int, dst []int32) []int32 {
	for i := 0; (i+1)*width <= len(data); i++ {
		if f(data[i*width : (i+1)*width]) {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

func TestReservoirFilter(t *testing.T) {
	r := NewReservoir(100, 1, newGen(4))
	fill(r, 0, 100) // not full: holds exactly 0..99, weight 100
	calls := 0
	f := r.Filter(keepFunc(func(tu []int64) bool { calls++; return tu[0] < 25 }))
	if calls != r.Len() {
		t.Fatalf("keep ran %d times over %d tuples, want once each", calls, r.Len())
	}
	if f.Len() != 25 {
		t.Fatalf("filtered Len = %d, want 25", f.Len())
	}
	if math.Abs(f.Weight()-25) > 1e-9 {
		t.Fatalf("filtered Weight = %v, want 25", f.Weight())
	}
	// Survivors keep their order and sit in one exact allocation.
	for i := 0; i < f.Len(); i++ {
		if f.Tuple(i)[0] != int64(i) {
			t.Fatalf("filtered tuple %d = %d", i, f.Tuple(i)[0])
		}
	}
	if cap(f.data) != 25 {
		t.Fatalf("filtered storage cap = %d, want exactly 25", cap(f.data))
	}
	// Filter on a full reservoir rescales weight by the observed fraction.
	r2 := NewReservoir(50, 1, newGen(5))
	fill(r2, 0, 1000)
	f2 := r2.Filter(keepFunc(func(tu []int64) bool { return tu[0] < 500 }))
	wantW := 1000 * float64(f2.Len()) / 50
	if math.Abs(f2.Weight()-wantW) > 1e-9 {
		t.Fatalf("rescaled weight = %v, want %v", f2.Weight(), wantW)
	}
	// Empty filter result.
	f3 := r2.Filter(keepFunc(func([]int64) bool { return false }))
	if f3.Len() != 0 || f3.Weight() != 0 || f3.data != nil {
		t.Fatal("empty filter should yield empty zero-weight reservoir")
	}
}

func TestMergeDefinedReservoir(t *testing.T) {
	r := NewReservoir(10, 1, newGen(7))
	fill(r, 0, 5)
	if got := Merge(nil, r, newGen(8)); got != r {
		t.Fatal("Merge(nil, r) should return r")
	}
	if got := Merge(r, nil, newGen(8)); got != r {
		t.Fatal("Merge(r, nil) should return r")
	}
}

func TestMergeNotFullBothPartial(t *testing.T) {
	a := NewReservoir(100, 1, newGen(9))
	fill(a, 0, 30)
	b := NewReservoir(100, 1, newGen(10))
	fill(b, 100, 120)
	m := Merge(a, b, newGen(11))
	if m.Len() != 50 || m.Weight() != 50 {
		t.Fatalf("Len=%d Weight=%v, want 50/50", m.Len(), m.Weight())
	}
	// All 50 distinct inputs must be present (no capacity pressure).
	seen := map[int64]bool{}
	for i := 0; i < m.Len(); i++ {
		seen[m.Tuple(i)[0]] = true
	}
	if len(seen) != 50 {
		t.Fatalf("lost tuples: %d distinct of 50", len(seen))
	}
}

func TestMergeNotFullIntoFull(t *testing.T) {
	full := NewReservoir(50, 1, newGen(12))
	fill(full, 0, 1000)
	partial := NewReservoir(50, 1, newGen(13))
	fill(partial, 5000, 5020)
	m := Merge(full, partial, newGen(14))
	if m.Weight() != 1020 {
		t.Fatalf("Weight = %v, want 1020", m.Weight())
	}
	if m.Len() != 50 {
		t.Fatalf("Len = %v, want 50", m.Len())
	}
}

func TestMergeProportionalWeights(t *testing.T) {
	// Merge equal-k full reservoirs; expect ~w1/(w1+w2) of tuples from R1.
	const k = 500
	fromA := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		a := NewReservoir(k, 1, newGen(uint64(100+trial)))
		fill(a, 0, 3000) // population A: [0, 3000)
		b := NewReservoir(k, 1, newGen(uint64(200+trial)))
		fill(b, 10000, 11000) // population B: [10000, 11000)
		m := Merge(a, b, newGen(uint64(300+trial)))
		if m.Weight() != 4000 {
			t.Fatalf("merged weight = %v, want 4000", m.Weight())
		}
		if m.Len() != k {
			t.Fatalf("merged len = %d, want %d", m.Len(), k)
		}
		for i := 0; i < m.Len(); i++ {
			if m.Tuple(i)[0] < 10000 {
				fromA++
			}
		}
	}
	total := float64(trials * k)
	gotFrac := float64(fromA) / total
	wantFrac := 3000.0 / 4000.0
	// Binomial sd = sqrt(p(1-p)/n) ≈ 0.003; allow 5 sigma.
	if math.Abs(gotFrac-wantFrac) > 5*math.Sqrt(wantFrac*(1-wantFrac)/total) {
		t.Fatalf("fraction from A = %.4f, want ~%.4f", gotFrac, wantFrac)
	}
}

func TestMergeScaledProportional(t *testing.T) {
	// Different capacities: result capacity is min(k1, k2); per-tuple
	// importance weights (wi/ki) drive inclusion.
	a := NewReservoir(100, 1, newGen(20))
	fill(a, 0, 5000)
	b := NewReservoir(60, 1, newGen(21))
	fill(b, 10000, 15000)
	m := Merge(a, b, newGen(22))
	if m.K() != 60 {
		t.Fatalf("merged capacity = %d, want min(100,60)=60", m.K())
	}
	if m.Weight() != 10000 {
		t.Fatalf("merged weight = %v, want 10000", m.Weight())
	}
	if m.Len() != 60 {
		t.Fatalf("merged len = %d, want 60", m.Len())
	}
}

func TestMergeScaledProportionality(t *testing.T) {
	// Equal populations with unequal capacities should still contribute
	// roughly equally (each tuple of the smaller reservoir carries more
	// weight).
	fromA, total := 0, 0
	for trial := 0; trial < 60; trial++ {
		a := NewReservoir(200, 1, newGen(uint64(400+trial)))
		fill(a, 0, 4000)
		b := NewReservoir(50, 1, newGen(uint64(500+trial)))
		fill(b, 10000, 14000)
		m := Merge(a, b, newGen(uint64(600+trial)))
		for i := 0; i < m.Len(); i++ {
			total++
			if m.Tuple(i)[0] < 10000 {
				fromA++
			}
		}
	}
	frac := float64(fromA) / float64(total)
	if math.Abs(frac-0.5) > 0.08 {
		t.Fatalf("equal populations contributed %.3f from A, want ~0.5", frac)
	}
}

func TestMergeWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a := NewReservoir(10, 1, newGen(30))
	b := NewReservoir(10, 2, newGen(31))
	Merge(a, b, newGen(32))
}

func TestMergeEquivalentToDirectSampleMean(t *testing.T) {
	// The paper's soundness claim: merging {R1,w1} and {R2,w2} is
	// distributed as sampling the union directly. Check that the estimator
	// mean over the merged sample matches the true union mean.
	const trials = 200
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		a := NewReservoir(100, 1, newGen(uint64(1000+trial)))
		fill(a, 0, 2000) // mean 999.5, weight 2000
		b := NewReservoir(100, 1, newGen(uint64(2000+trial)))
		fill(b, 2000, 6000) // mean 3999.5, weight 4000
		m := Merge(a, b, newGen(uint64(3000+trial)))
		s := 0.0
		for i := 0; i < m.Len(); i++ {
			s += float64(m.Tuple(i)[0])
		}
		sum += s / float64(m.Len())
	}
	got := sum / trials
	want := (999.5*2000 + 3999.5*4000) / 6000 // true union mean = 2999.5
	if math.Abs(got-want) > 60 {
		t.Fatalf("merged-sample mean estimate = %.1f, want ~%.1f", got, want)
	}
}

func TestConsiderWeighted(t *testing.T) {
	r := NewReservoir(10, 1, newGen(40))
	r.considerWeighted([]int64{1}, 5)
	if r.Weight() != 5 || r.Len() != 1 {
		t.Fatalf("Weight=%v Len=%d", r.Weight(), r.Len())
	}
	for i := 0; i < 100; i++ {
		r.considerWeighted([]int64{int64(i)}, 2)
	}
	if r.Len() != 10 {
		t.Fatalf("Len = %d, want 10", r.Len())
	}
	if math.Abs(r.Weight()-205) > 1e-9 {
		t.Fatalf("Weight = %v, want 205", r.Weight())
	}
}

func TestMergePreservesWeightInvariant(t *testing.T) {
	// Property: for any sizes/fills, merged weight == w1 + w2.
	for seed := uint64(0); seed < 50; seed++ {
		g := newGen(9000 + seed)
		k1 := 1 + g.Intn(100)
		k2 := 1 + g.Intn(100)
		n1 := int64(g.Intn(3000))
		n2 := int64(g.Intn(3000))
		a := NewReservoir(k1, 1, newGen(seed*3+1))
		fill(a, 0, n1)
		b := NewReservoir(k2, 1, newGen(seed*3+2))
		fill(b, 10000, 10000+n2)
		m := Merge(a, b, newGen(seed*3+3))
		if math.Abs(m.Weight()-float64(n1+n2)) > 1e-6 {
			t.Fatalf("seed %d: weight %v != %d", seed, m.Weight(), n1+n2)
		}
		wantLen := int(n1 + n2)
		if wantLen > m.K() {
			wantLen = m.K()
		}
		if m.Len() > m.K() || (wantLen <= m.K() && m.Len() != wantLen && m.Len() != m.K()) {
			t.Fatalf("seed %d: len %d out of bounds (k=%d, n=%d)", seed, m.Len(), m.K(), n1+n2)
		}
	}
}
