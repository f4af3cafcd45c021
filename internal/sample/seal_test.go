package sample

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"
)

// digest hashes everything a reader of s — or a later merge of it — can
// observe: the sample's weight, capacity and generator, and every stratum's
// key, header fields (generator and admission state included) and tuples,
// in id order.
func digest(s *strata) [32]byte {
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
	const nStrata = 1500 // three chunks of k = 32 strata
	build := func(seed uint64, k int, lo, hi int64, rows func(g int64) int) *Builder {
		g := newGen(seed)
		s := NewBuilder(Schema{"g", "v"}, 1, k, g.Split(1))
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
	// Each form returns the merge input and the strata it reads.
	forms := map[string]func(b *Builder) (Part, *strata){
		"built":  func(b *Builder) (Part, *strata) { return b, &b.strata },
		"sealed": func(b *Builder) (Part, *strata) { s := Seal(b, 1); return s, &s.strata },
		"fork":   func(b *Builder) (Part, *strata) { s := Seal(b, 1); return s.Fork(), &s.strata },
	}
	for _, rightK := range []int{32, 48} {
		for _, form := range []string{"built", "sealed", "fork"} {
			for _, workers := range []int{1, 8} {
				t.Run(fmt.Sprintf("k=32+%d/%s/workers=%d", rightK, form, workers), func(t *testing.T) {
					left, ls := forms[form](build(1, 32, 0, nStrata, many))
					right, rs := forms[form](build(2, rightK, nStrata/4, nStrata+nStrata/4, some))
					cases := map[string]int{}
					for id := range rs.res {
						switch l, r := ls.Stratum(rs.index.Key(int32(id))), &rs.res[id]; {
						case l == nil:
							cases["new key"]++
						case !l.Full() || !r.Full():
							cases["not full"]++
						case l.K() == r.K():
							cases["proportional"]++
						default:
							cases["scaled proportional"]++
						}
					}
					if len(cases) != 3 || cases["new key"] == 0 || cases["not full"] == 0 {
						t.Fatalf("cases %v, want new-key, not-full and one full case", cases)
					}
					before := [2][32]byte{digest(ls), digest(rs)}
					m, err := MergeStratified(left, right, newGen(3), workers)
					if err != nil {
						t.Fatal(err)
					}
					if after := [2][32]byte{digest(ls), digest(rs)}; after != before {
						t.Fatal("the merge wrote one of its inputs")
					}
					if m.NumStrata() != nStrata+nStrata/4 {
						t.Fatalf("merged %d strata, want %d", m.NumStrata(), nStrata+nStrata/4)
					}
					merged := digest(&m.strata)
					for _, in := range []*strata{ls, rs} {
						for id := range in.res {
							clear(in.res[id].data[:cap(in.res[id].data)])
						}
					}
					if digest(&m.strata) != merged {
						t.Fatal("the merged sample shares tuple storage with an input")
					}
				})
			}
		}
	}
}

// TestStratifiedCloneIsolation covers the stratified write paths a Δ-merge
// and a support repair take on a stored sample: Algorithm 3 over a fork
// of it, and Restore — of existing and new strata — into a Filter result
// of it, leave the stored sample, another fork of it and the merge as they
// were.
func TestStratifiedCloneIsolation(t *testing.T) {
	build := func(seed uint64, lo, n int64) *Builder {
		b := NewBuilder(Schema{"g", "v"}, 1, 8, newGen(seed))
		fillStratified(b, lo, n, 6)
		return b
	}
	orig := Seal(build(1, 0, 600), 1) // six full strata
	second := orig.Fork().mergeInput()
	wantWeight := orig.TotalWeight()

	merged, err := MergeStratified(orig.Fork(), build(2, 10_000, 300), newGen(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	if merged.TotalWeight() != wantWeight+300 {
		t.Fatalf("merged weight = %v", merged.TotalWeight())
	}
	before := [3][32]byte{digest(&orig.strata), digest(second.strata), digest(&merged.strata)}
	for _, from := range []*Stratified{orig, merged} {
		repaired := from.Filter(keepFunc(func(tu []int64) bool { return tu[1]%2 == 0 }))
		for _, key := range []StratumKey{{0}, {77}} {
			fresh := NewReservoir(8, 2, newGen(4))
			admit(fresh, [][]int64{key[:1], {-1}}, 1)
			if err := repaired.Restore(key, fresh); err != nil {
				t.Fatal(err)
			}
		}
		if repaired.Stratum(StratumKey{0}).Len() != 1 || repaired.Stratum(StratumKey{77}) == nil {
			t.Fatal("Restore did not install the repaired strata")
		}
	}
	if after := [3][32]byte{digest(&orig.strata), digest(second.strata), digest(&merged.strata)}; after != before {
		t.Fatal("Restore into a Filter result changed the stored sample, a fork of it or a merge of it")
	}
	if orig.NumStrata() != 6 || orig.TotalWeight() != wantWeight {
		t.Fatalf("stored sample has %d strata of weight %v", orig.NumStrata(), orig.TotalWeight())
	}
}
