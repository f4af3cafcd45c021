package sample

import (
	"math"
	"slices"
	"testing"
)

// fillStratified feeds n tuples of (group, value) with group = value % groups.
func fillStratified(s *Builder, start, n int64, groups int64) {
	vals := iota64(start, start+n)
	keys := make([]int64, n)
	for i, v := range vals {
		keys[i] = v % groups
	}
	s.ConsiderColumns([][]int64{keys, vals}, int(n))
}

func TestStratifiedBasics(t *testing.T) {
	s := NewBuilder(Schema{"g", "v"}, 1, 10, newGen(1))
	fillStratified(s, 0, 1000, 7)
	if s.NumStrata() != 7 {
		t.Fatalf("NumStrata = %d, want 7", s.NumStrata())
	}
	if s.TotalWeight() != 1000 {
		t.Fatalf("TotalWeight = %v, want 1000", s.TotalWeight())
	}
	var key StratumKey
	key[0] = 3
	r := s.Stratum(key)
	if r == nil {
		t.Fatal("stratum 3 missing")
	}
	if r.Len() != 10 {
		t.Fatalf("stratum len = %d, want k=10", r.Len())
	}
	// Every tuple in stratum 3 must have group 3.
	for i := 0; i < r.Len(); i++ {
		tu := r.Tuple(i)
		if tu[0] != 3 || tu[1]%7 != 3 {
			t.Fatalf("foreign tuple %v in stratum 3", tu)
		}
	}
}

func TestStratifiedPerStratumWeights(t *testing.T) {
	// Uneven groups: group 0 gets 900 tuples, group 1 gets 100.
	s := NewBuilder(Schema{"g", "v"}, 1, 20, newGen(2))
	for v := int64(0); v < 900; v++ {
		addRow(s, 0, v)
	}
	for v := int64(0); v < 100; v++ {
		addRow(s, 1, v)
	}
	var k0, k1 StratumKey
	k1[0] = 1
	if w := s.Stratum(k0).Weight(); w != 900 {
		t.Fatalf("stratum 0 weight = %v", w)
	}
	if w := s.Stratum(k1).Weight(); w != 100 {
		t.Fatalf("stratum 1 weight = %v", w)
	}
}

func TestStratifiedSmallGroupsFullyKept(t *testing.T) {
	// Strata smaller than k must keep every tuple — the property that makes
	// stratified sampling preserve rare groups in the output.
	s := NewBuilder(Schema{"g", "v"}, 1, 50, newGen(3))
	for g := int64(0); g < 10; g++ {
		for v := int64(0); v < 5; v++ {
			addRow(s, g, g*100+v)
		}
	}
	Seal(s, 1).ForEach(func(_ StratumKey, r *Reservoir) {
		if r.Len() != 5 || r.Full() {
			t.Fatalf("small stratum should hold all 5 tuples, has %d", r.Len())
		}
	})
}

func TestStratifiedMultiColumnQCS(t *testing.T) {
	s := NewBuilder(Schema{"a", "b", "v"}, 2, 5, newGen(4))
	for v := int64(0); v < 1000; v++ {
		addRow(s, v%3, v%5, v)
	}
	if s.NumStrata() != 15 {
		t.Fatalf("NumStrata = %d, want 3*5=15", s.NumStrata())
	}
}

// TestStratifiedKeysDeterministicOrder: a sealed sample walks its strata in
// key order — lexicographic over every QCS column, signed — whatever order
// its builder inserted them in, by admission or by Restore of a new key;
// ForEach pairs each key with its own stratum, and Keys hands out a copy.
func TestStratifiedKeysDeterministicOrder(t *testing.T) {
	b := NewBuilder(Schema{"g", "v"}, 1, 5, newGen(5))
	fillStratified(b, 0, 100, 9)
	keys := Seal(b, 1).Keys()
	if len(keys) != 9 {
		t.Fatalf("%d keys", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1][0] >= keys[i][0] {
			t.Fatal("keys not sorted")
		}
	}

	inOrder := func(s *Stratified, want ...StratumKey) {
		t.Helper()
		var got []StratumKey
		s.ForEach(func(key StratumKey, r *Reservoir) {
			if r != s.Stratum(key) {
				t.Fatalf("ForEach paired key %v with another stratum's reservoir", key)
			}
			got = append(got, key)
		})
		if !slices.Equal(got, want) || !slices.Equal(s.Keys(), want) {
			t.Fatalf("walk order %v, keys %v, want %v", got, s.Keys(), want)
		}
	}
	m := NewBuilder(Schema{"a", "b", "v"}, 2, 5, newGen(6))
	for _, ab := range [][2]int64{{2, -1}, {-3, 7}, {2, -9}, {0, 0}, {-3, -7}, {2, 4}} {
		addRow(m, ab[0], ab[1], 1)
	}
	r := NewReservoir(5, 3, newGen(7))
	admit(r, [][]int64{{1}, {-5}, {0}}, 1)
	if err := m.Restore(StratumKey{1, -5}, r); err != nil {
		t.Fatal(err)
	}
	s := Seal(m, 1)
	want := []StratumKey{{-3, -7}, {-3, 7}, {0, 0}, {1, -5}, {2, -9}, {2, -1}, {2, 4}}
	inOrder(s, want...)
	s.Keys()[0] = StratumKey{99}
	inOrder(s, want...)
}

func TestNewStratifiedValidation(t *testing.T) {
	for _, qcs := range []int{-1, 5, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("qcsWidth=%d should panic", qcs)
				}
			}()
			NewBuilder(Schema{"a", "b"}, qcs, 5, newGen(1))
		}()
	}
}

func TestStratifiedFilter(t *testing.T) {
	s := NewBuilder(Schema{"g", "v"}, 1, 100, newGen(6))
	fillStratified(s, 0, 500, 5) // 100 tuples per stratum, none full
	f := s.Filter(keepFunc(func(tu []int64) bool { return tu[1] < 250 }))
	if f.NumStrata() != 5 {
		t.Fatalf("NumStrata = %d", f.NumStrata())
	}
	if math.Abs(f.TotalWeight()-250) > 1e-9 {
		t.Fatalf("TotalWeight = %v, want 250", f.TotalWeight())
	}
	// A filter dropping whole strata removes them.
	f2 := s.Filter(keepFunc(func(tu []int64) bool { return tu[0] == 2 }))
	if f2.NumStrata() != 1 {
		t.Fatalf("NumStrata = %d, want 1", f2.NumStrata())
	}
}

// TestStratifiedClone: a fork of a sealed sample — the copy of a stored
// sample a Δ-merge reads — holds its origin's strata and weight and draws
// from the streams a copy was always given (the sample's Split(0xC1), each
// stratum's Substream(0x5C)), and so does a fork of the builder it was
// sealed from (a sliding window's slide); the sample a merge writes from a
// fork takes new strata without its origin seeing them.
func TestStratifiedClone(t *testing.T) {
	b := NewBuilder(Schema{"g", "v"}, 1, 10, newGen(7))
	fillStratified(b, 0, 200, 4)
	s := Seal(b, 1)
	before := digest(&s.strata)
	for _, c := range []input{s.Fork().mergeInput(), b.Fork().mergeInput()} {
		if c.NumStrata() != s.NumStrata() || c.TotalWeight() != s.TotalWeight() {
			t.Fatal("fork mismatch")
		}
		if *c.gen != s.gen.Substream(0xC1) {
			t.Fatal("the fork's generator is not its origin's Split(0xC1)")
		}
		s.ForEach(func(key StratumKey, r *Reservoir) {
			var buf Reservoir
			if got := c.read(c.Stratum(key), &buf); got.gen != r.gen.Substream(0x5C) || !slices.Equal(got.data, r.data) {
				t.Fatalf("stratum %v of the fork does not read as its origin's on Substream(0x5C)", key)
			}
		})
	}
	other := NewBuilder(Schema{"g", "v"}, 1, 10, newGen(8))
	addRow(other, 99, 99)
	m, err := MergeStratified(s.Fork(), other, newGen(9), 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStrata() != s.NumStrata()+1 || m.Stratum(StratumKey{99}) == nil {
		t.Fatalf("merged %d strata, want %d", m.NumStrata(), s.NumStrata()+1)
	}
	if digest(&s.strata) != before || s.Stratum(StratumKey{99}) != nil {
		t.Fatal("the merge of a fork changed the origin")
	}
}

func TestMergeStratifiedDisjointStrata(t *testing.T) {
	a := NewBuilder(Schema{"g", "v"}, 1, 10, newGen(8))
	for v := int64(0); v < 100; v++ {
		addRow(a, 0, v)
	}
	b := NewBuilder(Schema{"g", "v"}, 1, 10, newGen(9))
	for v := int64(0); v < 100; v++ {
		addRow(b, 1, v)
	}
	m, err := MergeStratified(a, b, newGen(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStrata() != 2 {
		t.Fatalf("NumStrata = %d, want 2", m.NumStrata())
	}
	if m.TotalWeight() != 200 {
		t.Fatalf("TotalWeight = %v", m.TotalWeight())
	}
}

func TestMergeStratifiedSharedStrata(t *testing.T) {
	// Algorithm 3: shared strata merge via Algorithm 2 and weights add.
	a := NewBuilder(Schema{"g", "v"}, 1, 50, newGen(11))
	fillStratified(a, 0, 1000, 4)
	b := NewBuilder(Schema{"g", "v"}, 1, 50, newGen(12))
	fillStratified(b, 10000, 2000, 4)
	m, err := MergeStratified(a, b, newGen(13), 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStrata() != 4 {
		t.Fatalf("NumStrata = %d", m.NumStrata())
	}
	if m.TotalWeight() != 3000 {
		t.Fatalf("TotalWeight = %v, want 3000", m.TotalWeight())
	}
	m.ForEach(func(k StratumKey, r *Reservoir) {
		if math.Abs(r.Weight()-750) > 1e-6 {
			t.Fatalf("stratum %v weight %v, want 750", k, r.Weight())
		}
	})
}

func TestMergeStratifiedSchemaMismatch(t *testing.T) {
	a := NewBuilder(Schema{"g", "v"}, 1, 10, newGen(16))
	b := NewBuilder(Schema{"g", "w"}, 1, 10, newGen(17))
	if _, err := MergeStratified(a, b, newGen(18), 1); err == nil {
		t.Fatal("schema mismatch must error")
	}
	c := NewBuilder(Schema{"g", "v"}, 2, 10, newGen(19))
	if _, err := MergeStratified(a, c, newGen(18), 1); err == nil {
		t.Fatal("QCS width mismatch must error")
	}
}

func TestMergeStratifiedEquivalenceToDirectSample(t *testing.T) {
	// Building one sample over [0,N) must be statistically equivalent to
	// building two samples over [0,N/2) and [N/2,N) and merging: compare
	// per-stratum mean estimates.
	const n, groups, k = 20000, 5, 200
	direct := NewBuilder(Schema{"g", "v"}, 1, k, newGen(20))
	fillStratified(direct, 0, n, groups)

	left := NewBuilder(Schema{"g", "v"}, 1, k, newGen(21))
	fillStratified(left, 0, n/2, groups)
	right := NewBuilder(Schema{"g", "v"}, 1, k, newGen(22))
	fillStratified(right, n/2, n/2, groups)
	merged, err := MergeStratified(left, right, newGen(23), 1)
	if err != nil {
		t.Fatal(err)
	}

	if merged.TotalWeight() != direct.TotalWeight() {
		t.Fatalf("weights differ: %v vs %v", merged.TotalWeight(), direct.TotalWeight())
	}
	mean := func(r *Reservoir) float64 {
		s := 0.0
		for i := 0; i < r.Len(); i++ {
			s += float64(r.Tuple(i)[1])
		}
		return s / float64(r.Len())
	}
	Seal(direct, 1).ForEach(func(key StratumKey, dr *Reservoir) {
		mr := merged.Stratum(key)
		if mr == nil {
			t.Fatalf("stratum %v missing from merged sample", key)
		}
		if math.Abs(dr.Weight()-mr.Weight()) > 1e-6 {
			t.Fatalf("stratum %v weight %v vs %v", key, dr.Weight(), mr.Weight())
		}
		// Both estimate the same population mean (~n/2); tolerate sampling
		// noise: population sd ≈ n/sqrt(12), sample-mean sd ≈ that / sqrt(k).
		sd := float64(n) / math.Sqrt(12) / math.Sqrt(k)
		if math.Abs(mean(dr)-mean(mr)) > 8*sd {
			t.Fatalf("stratum %v mean %v (direct) vs %v (merged)", key, mean(dr), mean(mr))
		}
	})
}

func TestStratifiedZeroQCSIsSimpleReservoir(t *testing.T) {
	// qcsWidth 0: grouping without a key — one stratum, a plain reservoir.
	s := NewBuilder(Schema{"v"}, 0, 50, newGen(99))
	for v := int64(0); v < 5000; v++ {
		addRow(s, v)
	}
	if s.NumStrata() != 1 {
		t.Fatalf("NumStrata = %d, want 1", s.NumStrata())
	}
	var zero StratumKey
	r := s.Stratum(zero)
	if r == nil || r.Len() != 50 || r.Weight() != 5000 {
		t.Fatalf("degenerate stratum = %+v", r)
	}
}

func TestMergeAssociativityInDistribution(t *testing.T) {
	// Merging ((A ⊕ B) ⊕ C) and (A ⊕ (B ⊕ C)) must both be distributed as
	// a direct sample of A ∪ B ∪ C: compare the mean estimates across many
	// trials (statistical equivalence, not byte equality).
	const n, k, trials = 6000, 100, 80
	build := func(seedBase uint64) (left, right float64) {
		mk := func(start int64, seed uint64) *Builder {
			s := NewBuilder(Schema{"g", "v"}, 1, k, newGen(seed))
			fillStratified(s, start, n, 1)
			return s
		}
		mean := func(s *Stratified) float64 {
			var key StratumKey
			r := s.Stratum(key)
			sum := 0.0
			for i := 0; i < r.Len(); i++ {
				sum += float64(r.Tuple(i)[1])
			}
			return sum / float64(r.Len())
		}
		// Left-assoc.
		a1, b1, c1 := mk(0, seedBase), mk(n, seedBase+1), mk(2*n, seedBase+2)
		ab, _ := MergeStratified(a1, b1, newGen(seedBase+3), 1)
		abc, _ := MergeStratified(ab, c1, newGen(seedBase+4), 1)
		// Right-assoc with fresh independent samples.
		a2, b2, c2 := mk(0, seedBase+5), mk(n, seedBase+6), mk(2*n, seedBase+7)
		bc, _ := MergeStratified(b2, c2, newGen(seedBase+8), 1)
		abc2, _ := MergeStratified(a2, bc, newGen(seedBase+9), 1)
		if abc.TotalWeight() != 3*n || abc2.TotalWeight() != 3*n {
			t.Fatalf("weights: %v, %v", abc.TotalWeight(), abc2.TotalWeight())
		}
		return mean(abc), mean(abc2)
	}
	var sumL, sumR float64
	for trial := 0; trial < trials; trial++ {
		l, r := build(uint64(trial) * 100)
		sumL += l
		sumR += r
	}
	meanL, meanR := sumL/trials, sumR/trials
	trueMean := float64(3*n-1) / 2
	// Sample-mean sd ≈ range/sqrt(12k); trial-mean sd ≈ that / sqrt(trials).
	sd := float64(3*n) / math.Sqrt(12*float64(k)) / math.Sqrt(trials)
	if math.Abs(meanL-trueMean) > 6*sd || math.Abs(meanR-trueMean) > 6*sd {
		t.Fatalf("association bias: left %.1f right %.1f true %.1f (sd %.1f)", meanL, meanR, trueMean, sd)
	}
	if math.Abs(meanL-meanR) > 8*sd {
		t.Fatalf("associativity violated: %.1f vs %.1f", meanL, meanR)
	}
}
