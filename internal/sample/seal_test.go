package sample

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// digest hashes everything a reader of s — or a later merge of it — can
// observe: the sample's weight, capacity and generator, and every stratum's
// key, header fields (generator and admission state included) and tuples,
// in id order.
func digest(s *Stratified) [32]byte {
	h := sha256.New()
	fmt.Fprintf(h, "%v %d %v %d|", s.weight, s.k, *s.gen, len(s.res))
	for id := range s.res {
		fmt.Fprintf(h, "%v %+v|", s.index.Key(int32(id)), s.res[id])
	}
	return [32]byte(h.Sum(nil))
}

// TestMergeLeavesInputsUnchanged: MergeStratified reads its inputs and
// writes neither, on one worker and on eight, over every case of Algorithm
// 2 — a side that is not full, two full reservoirs of equal capacity
// (proportional) and of different capacities (scaled proportional) — and
// strata only one side holds; and the result shares no storage with them,
// so overwriting every input tuple afterwards leaves it as it was. The
// inputs come as built (admitting), sealed, and as a fork of a sealed
// sample, the three forms a merge reads.
func TestMergeLeavesInputsUnchanged(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 8 {
		runtime.GOMAXPROCS(8)
		defer runtime.GOMAXPROCS(prev)
	}
	const strata = 1500 // three chunks of k = 32 strata
	build := func(seed uint64, k int, lo, hi int64, rows func(g int64) int) *Stratified {
		g := newGen(seed)
		s := NewStratified(Schema{"g", "v"}, 1, k, g.Split(1))
		var keys, vals []int64
		for key := lo; key < hi; key++ {
			for i := rows(key); i > 0; i-- {
				keys = append(keys, key)
				vals = append(vals, int64(g.Intn(1<<30)))
			}
		}
		g.Shuffle(len(keys), func(i, j int) {
			keys[i], keys[j] = keys[j], keys[i]
			vals[i], vals[j] = vals[j], vals[i]
		})
		s.ConsiderColumns([][]int64{keys, vals}, len(keys))
		return s
	}
	many := func(int64) int { return 80 }
	some := func(g int64) int { // key g of the right side is not full when g%3 == 1
		if g%3 == 1 {
			return 5
		}
		return 80
	}
	forms := map[string]func(s *Stratified) *Stratified{
		"built":  func(s *Stratified) *Stratified { return s },
		"sealed": func(s *Stratified) *Stratified { s.Seal(); return s },
		"fork":   func(s *Stratified) *Stratified { s.Seal(); return s.Fork() },
	}
	for _, rightK := range []int{32, 48} {
		for _, form := range []string{"built", "sealed", "fork"} {
			for _, workers := range []int{1, 8} {
				t.Run(fmt.Sprintf("k=32+%d/%s/workers=%d", rightK, form, workers), func(t *testing.T) {
					left := forms[form](build(1, 32, 0, strata, many))
					right := forms[form](build(2, rightK, strata/4, strata+strata/4, some))
					cases := map[string]int{}
					right.ForEach(func(key StratumKey, r *Reservoir) {
						switch l := left.Stratum(key); {
						case l == nil:
							cases["new key"]++
						case !l.Full() || !r.Full():
							cases["not full"]++
						case l.K() == r.K():
							cases["proportional"]++
						default:
							cases["scaled proportional"]++
						}
					})
					if len(cases) != 3 || cases["new key"] == 0 || cases["not full"] == 0 {
						t.Fatalf("cases %v, want new-key, not-full and one full case", cases)
					}
					before := [2][32]byte{digest(left), digest(right)}
					m, err := MergeStratified(left, right, newGen(3), workers)
					if err != nil {
						t.Fatal(err)
					}
					if after := [2][32]byte{digest(left), digest(right)}; after != before {
						t.Fatal("the merge wrote one of its inputs")
					}
					if m.NumStrata() != strata+strata/4 || !m.packed {
						t.Fatalf("merged %d strata (packed %v), want %d packed", m.NumStrata(), m.packed, strata+strata/4)
					}
					merged := digest(m)
					for _, in := range []*Stratified{left, right} {
						for id := range in.res {
							clear(in.res[id].data[:cap(in.res[id].data)])
						}
					}
					if digest(m) != merged {
						t.Fatal("the merged sample shares tuple storage with an input")
					}
				})
			}
		}
	}
}

// TestStratifiedCloneIsolation covers the stratified write paths a Δ-merge
// and a support repair take on a stored sample: Algorithm 3 over a fork
// of it, and Restore into the result — existing and new strata — leave
// the stored sample and another fork of it as they were.
func TestStratifiedCloneIsolation(t *testing.T) {
	build := func(seed uint64, lo, n int64) *Stratified {
		s := NewStratified(Schema{"g", "v"}, 1, 8, newGen(seed))
		fillStratified(s, lo, n, 6)
		return s
	}
	orig := build(1, 0, 600) // six full strata
	orig.Seal()
	second := orig.Fork()
	before := [2][32]byte{digest(orig), digest(second)}
	wantWeight := orig.TotalWeight()

	merged, err := MergeStratified(orig.Fork(), build(2, 10_000, 300), newGen(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	if merged.TotalWeight() != wantWeight+300 {
		t.Fatalf("merged weight = %v", merged.TotalWeight())
	}
	for _, key := range []StratumKey{{0}, {77}} {
		fresh := NewReservoir(8, 2, newGen(4))
		admit(fresh, [][]int64{key[:1], {-1}}, 1)
		if err := merged.Restore(key, fresh); err != nil {
			t.Fatal(err)
		}
	}
	if merged.Stratum(StratumKey{0}).Len() != 1 || merged.Stratum(StratumKey{77}) == nil {
		t.Fatal("Restore did not install the repaired strata")
	}
	if after := [2][32]byte{digest(orig), digest(second)}; after != before {
		t.Fatal("the merge, or Restore into its result, changed the stored sample or a fork of it")
	}
	if orig.NumStrata() != 6 || orig.TotalWeight() != wantWeight {
		t.Fatalf("stored sample has %d strata of weight %v", orig.NumStrata(), orig.TotalWeight())
	}
}

// TestSealedSampleRefusesAdmission:a sealed sample, and a fork of any
// sample, is read only — admission and Restore panic — while a merge's
// result, which nothing has published yet, still admits (it unpacks).
func TestSealedSampleRefusesAdmission(t *testing.T) {
	built := func() *Stratified {
		s := NewStratified(Schema{"g", "v"}, 1, 4, newGen(1))
		fillStratified(s, 0, 40, 3)
		return s
	}
	sealed := built()
	sealed.Seal()
	r := NewReservoir(4, 2, newGen(2))
	for name, write := range map[string]func(s *Stratified){
		"ConsiderColumns": func(s *Stratified) { addRow(s, 1, 1) },
		"Restore":         func(s *Stratified) { _ = s.Restore(StratumKey{1}, r) },
	} {
		for form, s := range map[string]*Stratified{"sealed": sealed, "fork": built().Fork()} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s into a %s sample did not panic", name, form)
					}
				}()
				write(s)
			}()
		}
	}
	m, err := MergeStratified(built(), built(), newGen(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	addRow(m, 7, 7)
	if m.packed || m.Stratum(StratumKey{7}) == nil {
		t.Fatal("admission into an unpublished merge result should unpack it and insert the key")
	}
}

// TestSortedKeyCache: the ordered walk of a sample that is not packed sorts
// once per sample; every way a stratum can appear drops the cache, Keys
// hands out a copy, a merge leaves its input's order as it was, and the
// packed result walks by position with no cache.
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

	other := NewStratified(Schema{"g", "v"}, 1, 4, newGen(3))
	addRow(other, 0, 0)
	addRow(other, 3, 9)
	m, err := MergeStratified(s, other, newGen(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	inOrder(1, 2, 3, 4, 5)
	s = m
	inOrder(0, 1, 2, 3, 4, 5)
	if !s.packed || s.sorted.Load() != nil {
		t.Fatal("a merge should write a packed sample, walked without a key cache")
	}
}
