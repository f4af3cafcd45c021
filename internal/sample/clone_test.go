package sample

import (
	"slices"
	"testing"
)

// snapshot copies everything a reader of r can observe.
type snapshot struct {
	weight float64
	data   []int64
}

func snap(r *Reservoir) snapshot { return snapshot{r.weight, slices.Clone(r.data)} }

func (s snapshot) check(t *testing.T, what string, r *Reservoir) {
	t.Helper()
	if r.weight != s.weight || !slices.Equal(r.data, s.data) {
		t.Fatalf("%s changed: weight %v → %v, tuples %v → %v", what, s.weight, r.weight, s.data, r.data)
	}
}

// TestLazyCloneIsolation drives a clone — and, in turn, the original —
// through every write path of a reservoir and asserts the other side and a
// second clone are untouched byte for byte: Clone shares tuple storage, and
// whichever side first overwrites a stored slot must copy it beforehand.
func TestLazyCloneIsolation(t *testing.T) {
	const k, width = 8, 2
	cols := func(n int, base int64) [][]int64 {
		c := make([][]int64, width)
		for j := range c {
			c[j] = make([]int64, n)
			for i := range c[j] {
				c[j][i] = base + int64(i*width+j)
			}
		}
		return c
	}
	full := func(seed uint64) *Reservoir {
		r := NewReservoir(k, width, newGen(seed))
		admit(r, cols(100, 0), 100)
		return r
	}
	filling := func(seed uint64) *Reservoir {
		r := NewReservoir(k, width, newGen(seed))
		admit(r, cols(3, 0), 3)
		return r
	}
	for _, c := range []struct {
		name  string
		base  func(seed uint64) *Reservoir
		write func(r *Reservoir)
	}{
		{"row fill", filling, func(r *Reservoir) { admit(r, [][]int64{{-1}, {-2}}, 1) }},
		{"row admission", full, func(r *Reservoir) {
			for i := int64(0); i < 200; i++ {
				admit(r, [][]int64{{-i}, {-i}}, 1)
			}
		}},
		{"batch fill", filling, func(r *Reservoir) { admit(r, cols(2, -50), 2) }},
		{"batch fill to saturation", filling, func(r *Reservoir) { admit(r, cols(400, -900), 400) }},
		{"batch admission", full, func(r *Reservoir) { admit(r, cols(400, -900), 400) }},
		{"stratified row fill", filling, func(r *Reservoir) { r.considerRowColumns(cols(1, -7), 0) }},
		{"stratified row admission", full, func(r *Reservoir) {
			c := cols(400, -900)
			for i := 0; i < 400; i++ {
				r.considerRowColumns(c, i)
			}
		}},
		{"weighted fill", filling, func(r *Reservoir) { r.considerWeighted([]int64{-1, -2}, 2.5) }},
		{"weighted admission", full, func(r *Reservoir) {
			for i := int64(1); i < 50; i++ {
				r.considerWeighted([]int64{-i, -i}, 40)
			}
		}},
		{"merge not-full into it", full, func(r *Reservoir) {
			d := NewReservoir(k, width, newGen(90))
			admit(d, cols(5, -500), 5)
			if m := Merge(r, d, newGen(91)); m != r {
				panic("accumulator should be the full side")
			}
		}},
		{"proportional merge", full, func(r *Reservoir) {
			d := NewReservoir(k, width, newGen(92))
			admit(d, cols(300, -5000), 300)
			if m := Merge(r, d, newGen(93)); m != r {
				panic("proportional merge should reuse r1")
			}
		}},
	} {
		for _, side := range []string{"clone", "original"} {
			t.Run(c.name+"/"+side, func(t *testing.T) {
				orig := c.base(11)
				first, second := orig.Clone(), orig.Clone()
				if len(orig.data) == 0 || &first.data[0] != &orig.data[0] || &second.data[0] != &orig.data[0] {
					t.Fatal("clones should share the original's tuple storage until written")
				}
				written, others := first, []*Reservoir{orig, second}
				if side == "original" {
					written, others = orig, []*Reservoir{first, second}
				}
				before := []snapshot{snap(others[0]), snap(others[1])}
				was := snap(written)
				c.write(written)
				if written.weight == was.weight {
					t.Fatal("write path did not run")
				}
				for i, o := range others {
					before[i].check(t, "untouched side", o)
				}
				// And once more the other way: the writer now owns its
				// storage, the others still share theirs.
				after := snap(written)
				c.write(others[0])
				after.check(t, "first writer", written)
				before[1].check(t, "second untouched side", others[1])
			})
		}
	}
}

// TestStratifiedCloneIsolation covers the stratified write paths a Δ-merge
// and a support repair take on a clone: Algorithm 3 over shared strata and
// Restore.
func TestStratifiedCloneIsolation(t *testing.T) {
	build := func(seed uint64, lo, n int64) *Stratified {
		s := NewStratified(Schema{"g", "v"}, 1, 8, newGen(seed))
		fillStratified(s, lo, n, 6)
		return s
	}
	orig := build(1, 0, 600) // six full strata
	second := orig.Clone()
	type strat struct {
		key  StratumKey
		snap snapshot
	}
	var before []strat
	orig.ForEach(func(key StratumKey, r *Reservoir) { before = append(before, strat{key, snap(r)}) })
	wantWeight := orig.TotalWeight()

	merged, err := MergeStratified(orig.Clone(), build(2, 10_000, 300), newGen(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	if merged.TotalWeight() != wantWeight+300 {
		t.Fatalf("merged weight = %v", merged.TotalWeight())
	}
	fresh := NewReservoir(8, 2, newGen(4))
	admit(fresh, [][]int64{{0}, {-1}}, 1)
	if err := merged.Restore(StratumKey{0}, fresh); err != nil {
		t.Fatal(err)
	}
	if err := merged.Restore(StratumKey{77}, fresh.Clone()); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Stratified{orig, second} {
		if s.TotalWeight() != wantWeight || s.NumStrata() != len(before) {
			t.Fatalf("weight %v strata %d, want %v and %d", s.TotalWeight(), s.NumStrata(), wantWeight, len(before))
		}
		for _, b := range before {
			b.snap.check(t, "stratum of an untouched sample", s.Stratum(b.key))
		}
	}
}

// TestSortedKeyCache: the ordered walk sorts once per sample; every way a
// stratum can appear drops the cache, Keys hands out a copy, and a clone
// inherits the cache without being able to disturb its origin's.
func TestSortedKeyCache(t *testing.T) {
	s := NewStratified(Schema{"g", "v"}, 1, 4, newGen(1))
	inOrder := func(want ...int64) {
		t.Helper()
		var got []int64
		s.ForEach(func(key StratumKey, r *Reservoir) {
			if r != s.Stratum(key) {
				t.Fatalf("ForEach paired key %v with another stratum's reservoir", key)
			}
			got = append(got, key[0])
		})
		if !slices.Equal(got, want) {
			t.Fatalf("walk order %v, want %v", got, want)
		}
	}
	addRow(s, 5, 0)
	addRow(s, 3, 0)
	inOrder(3, 5)
	if s.sorted.Load() == nil {
		t.Fatal("walk did not cache its keys")
	}
	cached := s.sorted.Load()
	addRow(s, 3, 1) // existing stratum: cache stands
	inOrder(3, 5)
	if s.sorted.Load() != cached {
		t.Fatal("a tuple of an existing stratum rebuilt the key cache")
	}
	keys := s.Keys()
	keys[0] = StratumKey{99}
	inOrder(3, 5)

	addRow(s, 4, 0)
	inOrder(3, 4, 5)
	s.ConsiderColumns([][]int64{{1, 4}, {0, 0}}, 2)
	inOrder(1, 3, 4, 5)
	r := NewReservoir(4, 2, newGen(2))
	admit(r, [][]int64{{2}, {0}}, 1)
	if err := s.Restore(StratumKey{2}, r); err != nil {
		t.Fatal(err)
	}
	inOrder(1, 2, 3, 4, 5)

	c := s.Clone()
	if c.sorted.Load() != s.sorted.Load() {
		t.Fatal("clone should share the sorted keys")
	}
	other := NewStratified(Schema{"g", "v"}, 1, 4, newGen(3))
	addRow(other, 0, 0)
	addRow(other, 3, 9)
	m, err := MergeStratified(c, other, newGen(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	inOrder(1, 2, 3, 4, 5)
	s = m
	inOrder(0, 1, 2, 3, 4, 5)
}
