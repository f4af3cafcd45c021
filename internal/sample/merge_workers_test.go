package sample_test

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"laqy/internal/rng"
	"laqy/internal/sample"
	"laqy/internal/store"
)

// TestMergeStratifiedWorkersBitIdentical: merging on eight workers gives the
// bytes (store encoding) and stratum ids that merging on one does, and
// sealing a builder on eight workers the bytes sealing it on one does. The two
// inputs share most strata and cover every case of Algorithm 2 — a side
// that is not full, two full reservoirs of equal capacity (proportional)
// and of different capacities (scaled proportional) — and each side holds
// strata the other lacks, so the merge inserts new keys; the walk spans
// several chunks.
func TestMergeStratifiedWorkersBitIdentical(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 8 {
		runtime.GOMAXPROCS(8)
		defer runtime.GOMAXPROCS(prev)
	}
	const strata = 2000
	schema := sample.Schema{"g", "v"}
	// build draws a sample of capacity k over keys [lo, hi): key g gets
	// rows(g) rows of random values.
	build := func(seed uint64, k int, lo, hi int64, rows func(g int64) int) *sample.Builder {
		g := rng.NewLehmer64(seed)
		s := sample.NewBuilder(schema, 1, k, g.Split(1))
		var keys, vals []int64
		for key := lo; key < hi; key++ {
			for i := rows(key); i > 0; i-- {
				keys = append(keys, key)
				vals = append(vals, int64(g.Intn(1<<30)))
			}
		}
		// Shuffle so each stratum's admission interleaves with the others'.
		g.Shuffle(len(keys), func(i, j int) {
			keys[i], keys[j] = keys[j], keys[i]
			vals[i], vals[j] = vals[j], vals[i]
		})
		s.ConsiderColumns([][]int64{keys, vals}, len(keys))
		return s
	}
	// Key g of the right side is not full when g%3 == 1.
	many := func(int64) int { return 80 }
	some := func(g int64) int {
		if g%3 == 1 {
			return 5
		}
		return 80
	}
	for _, rightK := range []int{32, 48} {
		t.Run(fmt.Sprintf("k=32+%d", rightK), func(t *testing.T) {
			inputs := func() (*sample.Builder, *sample.Builder) {
				return build(1, 32, 0, strata, many), build(2, rightK, strata/4, strata+strata/4, some)
			}
			left, right := inputs()
			if chunks := (strata + sample.ChunkStrata(rightK) - 1) / sample.ChunkStrata(rightK); chunks < 3 {
				t.Fatalf("%d strata make %d chunks, want at least 3", strata, chunks)
			}
			cases := map[string]int{}
			sample.Seal(right, 1).ForEach(func(key sample.StratumKey, r *sample.Reservoir) {
				l := left.Stratum(key)
				switch {
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
			want := []string{"new key", "not full", "proportional"}
			if rightK != 32 {
				want[2] = "scaled proportional"
			}
			for _, c := range want {
				if cases[c] == 0 {
					t.Fatalf("no stratum of case %q: %v", c, cases)
				}
			}

			var encoded, sealed [][]byte
			var ids [][]sample.StratumKey
			for _, workers := range []int{1, 8} {
				a, b := inputs()
				sealed = append(sealed, store.EncodeStratified(sample.Seal(a, workers)))
				m, err := sample.MergeStratified(a, b, rng.NewLehmer64(3), workers)
				if err != nil {
					t.Fatal(err)
				}
				encoded = append(encoded, store.EncodeStratified(m))
				ids = append(ids, sample.KeysByID(m))
			}
			if !bytes.Equal(encoded[0], encoded[1]) {
				t.Error("8-worker merge encodes to other bytes than the 1-worker merge")
			}
			if !bytes.Equal(sealed[0], sealed[1]) {
				t.Error("8-worker seal encodes to other bytes than the 1-worker seal")
			}
			if !slices.Equal(ids[0], ids[1]) {
				t.Error("8-worker merge numbers its strata differently from the 1-worker merge")
			}
		})
	}
}
