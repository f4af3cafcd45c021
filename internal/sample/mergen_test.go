package sample_test

import (
	"bytes"
	"runtime"
	"testing"

	"laqy/internal/rng"
	"laqy/internal/sample"
	"laqy/internal/store"
)

// FuzzMergeN merges random parts — builders, sealed samples and forks of
// either, k from 4 to 16, over strata the parts share or over disjoint
// ones — at one and at four workers, and checks the result: keys strictly
// ascending, each stratum's weight the sum of its inputs', no stratum past
// its capacity or holding a tuple no input stratum holds, the same bytes at
// both worker counts and the bytes of a pairwise tree that the test runs
// through MergeStratified.
//
// spec spells one part per four bytes (at most nine parts):
//
//	kind  %3: builder, sealed, fork (of the builder, or with bit 2 of the
//	      sealed sample); bit 3: keys disjoint from every other part's;
//	      bit 4: wide, over a thousand strata of a few rows, so the merge
//	      spans several chunks and four workers share it
//	k     capacity 4 + k%13
//	keys  the number of strata
//	rows  rows per stratum
func FuzzMergeN(f *testing.F) {
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	schema := sample.Schema{"g", "v"}
	f.Fuzz(func(t *testing.T, spec []byte, seed uint64) {
		gen := rng.NewLehmer64(seed)
		var parts []sample.Part
		var views []*sample.Stratified // each part's strata, as read
		for i := 0; i+4 <= len(spec) && i < 4*9; i += 4 {
			kind, k, nKeys, rows := spec[i], 4+int(spec[i+1]%13), 1+int(spec[i+2]%32), 1+int(spec[i+3]%40)
			if kind&16 != 0 {
				nKeys, rows = 1024+16*int(spec[i+2]), 1+int(spec[i+3]%3)
			}
			base := int64(0)
			if kind&8 != 0 {
				base = int64(i/4+1) << 13
			}
			var keys, vals []int64
			for r := 0; r < rows; r++ {
				for key := base; key < base+int64(nKeys); key++ {
					keys = append(keys, key)
					vals = append(vals, int64(i)<<32|int64(len(vals)))
				}
			}
			b := sample.NewBuilder(schema, 1, k, gen.Split(uint64(i)))
			b.ConsiderColumns([][]int64{keys, vals}, len(keys))
			s := sample.Seal(b, 1)
			views = append(views, s)
			switch kind % 3 {
			case 0:
				parts = append(parts, b)
			case 1:
				parts = append(parts, s)
			case 2:
				if kind&4 != 0 {
					parts = append(parts, s.Fork())
				} else {
					parts = append(parts, b.Fork())
				}
			}
		}
		if len(parts) == 0 {
			if _, err := sample.MergeN(parts, gen, 1); err == nil {
				t.Fatal("merging no parts must fail")
			}
			return
		}
		given := append([]sample.Part(nil), parts...)
		merge := func(workers int) *sample.Stratified {
			m, err := sample.MergeN(parts, gen.Split(1<<40), workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range parts {
				if parts[i] != given[i] {
					t.Fatalf("MergeN wrote part %d of its argument", i)
				}
			}
			return sample.Seal(m, 1)
		}
		got := merge(1)

		var prev *sample.StratumKey
		total := 0.0
		got.ForEach(func(key sample.StratumKey, r *sample.Reservoir) {
			if prev != nil && prev.Compare(key) >= 0 {
				t.Fatalf("key %v follows %v", key, *prev)
			}
			prev = &key
			weight, held := 0.0, map[int64]bool{}
			for _, v := range views {
				if in := v.Stratum(key); in != nil {
					weight += in.Weight()
					for j := 0; j < in.Len(); j++ {
						held[in.Tuple(j)[1]] = true
					}
				}
			}
			if r.Weight() != weight {
				t.Fatalf("stratum %v weighs %v, its inputs %v", key[0], r.Weight(), weight)
			}
			if r.Len() > r.K() || r.K() > 16 {
				t.Fatalf("stratum %v holds %d tuples at capacity %d", key[0], r.Len(), r.K())
			}
			for j := 0; j < r.Len(); j++ {
				if tu := r.Tuple(j); tu[0] != key[0] || !held[tu[1]] {
					t.Fatalf("stratum %v holds %v, which no input stratum holds", key[0], tu)
				}
			}
			total += weight
		})
		strata := map[int64]bool{}
		for _, v := range views {
			for _, key := range v.Keys() {
				strata[key[0]] = true
			}
		}
		if got.NumStrata() != len(strata) || got.TotalWeight() != total {
			t.Fatalf("%d strata of weight %v, inputs %d strata", got.NumStrata(), got.TotalWeight(), len(strata))
		}

		want := store.EncodeStratified(got)
		if !bytes.Equal(store.EncodeStratified(merge(4)), want) {
			t.Fatal("four workers merge to other bytes than one")
		}
		// The pairwise tree: round r merges part i with part i+⌈n/2⌉.
		ref := given
		for round := uint64(0); len(ref) > 1; round++ {
			half := (len(ref) + 1) / 2
			next := make([]sample.Part, half)
			copy(next, ref[:half])
			for i := 0; i+half < len(ref); i++ {
				m, err := sample.MergeStratified(ref[i], ref[i+half], gen.Split(1<<40).Split(round<<32|uint64(i)), 1)
				if err != nil {
					t.Fatal(err)
				}
				next[i] = m
			}
			ref = next
		}
		if !bytes.Equal(store.EncodeStratified(sample.Seal(ref[0], 1)), want) {
			t.Fatal("MergeN differs from the pairwise tree of MergeStratified")
		}
	})
}
