package sample

import (
	"testing"

	"laqy/internal/rng"
)

// inclusionCounts runs `trials` independent reservoir samples of the stream
// 0..n-1 (width 1) and accumulates, per bucket of n/buckets consecutive
// items, how many sampled tuples fell in it. consider chooses the admission
// path under test.
func inclusionCounts(trials, n, k, buckets int, seed uint64, consider func(r *Reservoir, vals []int64)) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	counts := make([]int64, buckets)
	width := n / buckets
	master := rng.NewLehmer64(seed)
	for t := 0; t < trials; t++ {
		r := NewReservoir(k, 1, master.Split(uint64(t)))
		consider(r, vals)
		if r.Len() != k {
			panic("reservoir not full")
		}
		if r.Weight() != float64(n) {
			panic("weight mismatch")
		}
		for i := 0; i < k; i++ {
			b := int(r.Tuple(i)[0]) / width
			if b >= buckets {
				b = buckets - 1
			}
			counts[b]++
		}
	}
	return counts
}

// chiSquare computes the chi-square statistic of observed counts against a
// uniform expectation.
func chiSquare(counts []int64, expected float64) float64 {
	var stat float64
	for _, c := range counts {
		d := float64(c) - expected
		stat += d * d / expected
	}
	return stat
}

// TestAlgorithmLChiSquareEquivalence holds the batch Algorithm-L skip path
// to the same distributional contract as the per-row Algorithm-R reference:
// every stream position is included with probability k/n. Both paths'
// bucket-inclusion counts are tested against the uniform expectation with a
// chi-square goodness-of-fit at the 0.001 level (df=19, critical 43.82).
// Seeds are fixed, so this never flakes — it fails only if an admission
// path's inclusion probabilities are actually skewed.
func TestAlgorithmLChiSquareEquivalence(t *testing.T) {
	const (
		trials  = 400
		n       = 10_000
		k       = 100
		buckets = 20
		crit    = 43.82 // chi-square 0.999 quantile, df = buckets-1 = 19
	)
	expected := float64(trials) * float64(k) / float64(buckets)

	perRow := func(r *Reservoir, vals []int64) {
		tuple := make([]int64, 1)
		for _, v := range vals {
			tuple[0] = v
			r.Consider(tuple)
		}
	}
	batch := func(r *Reservoir, vals []int64) {
		r.ConsiderColumns([][]int64{vals}, len(vals))
	}
	// Split batches mid-stream (and mid-fill) to exercise skip-state carry
	// across ConsiderColumns calls.
	chunked := func(r *Reservoir, vals []int64) {
		for len(vals) > 0 {
			c := 37
			if c > len(vals) {
				c = len(vals)
			}
			r.ConsiderColumns([][]int64{vals[:c]}, c)
			vals = vals[c:]
		}
	}

	for _, tc := range []struct {
		name     string
		seed     uint64
		consider func(*Reservoir, []int64)
	}{
		{"algorithmR-perRow", 101, perRow},
		{"algorithmL-batch", 202, batch},
		{"algorithmL-chunked", 303, chunked},
	} {
		counts := inclusionCounts(trials, n, k, buckets, tc.seed, tc.consider)
		var total int64
		for _, c := range counts {
			total += c
		}
		if total != int64(trials*k) {
			t.Fatalf("%s: total inclusions %d, want %d", tc.name, total, trials*k)
		}
		if stat := chiSquare(counts, expected); stat > crit {
			t.Fatalf("%s: chi-square %.2f exceeds %.2f (df=%d) — inclusion is not uniform: %v",
				tc.name, stat, crit, buckets-1, counts)
		}
	}
}

// TestAlgorithmLDrawSavings pins the perf claim behind the batch path: for
// n >> k the geometric skip draws O(k·log(n/k)) random numbers where the
// per-row reference draws one per considered tuple (~n). The ratio must be
// at least 10x; at n=1e6, k=64 it is ~500x.
func TestAlgorithmLDrawSavings(t *testing.T) {
	const (
		n = 1_000_000
		k = 64
	)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}

	rr := NewReservoir(k, 1, rng.NewLehmer64(1))
	tuple := make([]int64, 1)
	for _, v := range vals {
		tuple[0] = v
		rr.Consider(tuple)
	}
	rl := NewReservoir(k, 1, rng.NewLehmer64(1))
	rl.ConsiderColumns([][]int64{vals}, n)

	if rr.RNGDraws() != n-k {
		t.Fatalf("per-row draws = %d, want n-k = %d", rr.RNGDraws(), n-k)
	}
	if rl.RNGDraws()*10 > rr.RNGDraws() {
		t.Fatalf("batch path drew %d vs per-row %d: want >= 10x fewer", rl.RNGDraws(), rr.RNGDraws())
	}
	t.Logf("draws: per-row %d, batch %d (%.0fx fewer)",
		rr.RNGDraws(), rl.RNGDraws(), float64(rr.RNGDraws())/float64(rl.RNGDraws()))
}

// TestConsiderColumnsMatchesRowColumns checks the stratified single-row
// batch step and the flat batch path agree on weight accounting and
// reservoir size for identical streams.
func TestConsiderColumnsMatchesRowColumns(t *testing.T) {
	const n, k = 5000, 32
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	cols := [][]int64{vals}

	batch := NewReservoir(k, 1, rng.NewLehmer64(9))
	batch.ConsiderColumns(cols, n)
	rowwise := NewReservoir(k, 1, rng.NewLehmer64(9))
	for i := 0; i < n; i++ {
		rowwise.considerRowColumns(cols, i)
	}
	for _, r := range []*Reservoir{batch, rowwise} {
		if r.Len() != k || r.Weight() != float64(n) {
			t.Fatalf("Len=%d Weight=%v, want %d and %d", r.Len(), r.Weight(), k, n)
		}
	}
}

// TestRowFillGrowsInTuples pins the fill phase of the stratified batch path:
// a stratum holding t < k tuples owns at most max(2t, fillChunkTuples) tuples
// of storage — whole tuples, doubling, never the k-tuple reservation that
// thousands of sparse strata could not afford — and at most k once full;
// every row offered before saturation is kept verbatim, in order, also when
// the fill continues on storage whose capacity is no multiple of the width
// (a clone, a restored reservoir).
func TestRowFillGrowsInTuples(t *testing.T) {
	const k, width, n = 1024, 3, 1500
	cols := make([][]int64, width)
	for c := range cols {
		cols[c] = make([]int64, n)
		for i := range cols[c] {
			cols[c][i] = int64(1000*c + i)
		}
	}
	check := func(r *Reservoir, from, upto int) {
		t.Helper()
		for i := from; i < upto; i++ {
			r.considerRowColumns(cols, i)
			have := r.Len()
			if limit := min(max(2*have, fillChunkTuples), k) * width; have < k && cap(r.data) > limit {
				t.Fatalf("after %d rows: cap %d int64s for %d tuples, limit %d", i+1, cap(r.data), have, limit)
			}
		}
		if upto > k {
			return // saturated: admission has been replacing tuples
		}
		for i := 0; i < upto; i++ {
			for c, v := range r.Tuple(i) {
				if v != cols[c][i] {
					t.Fatalf("tuple %d column %d = %d, want %d", i, c, v, cols[c][i])
				}
			}
		}
	}
	r := NewReservoir(k, width, rng.NewLehmer64(3))
	check(r, 0, 700)
	clone := r.Clone()
	clone.data = append(clone.data[:len(clone.data):len(clone.data)], 0)[:len(clone.data)] // capacity now off the tuple grid
	for _, r := range []*Reservoir{clone, r} {
		check(r, 700, k)
		check(r, k, n)
	}
	for _, full := range []*Reservoir{r, clone} {
		if full.Len() != k || full.Weight() != n || cap(full.data) > 2*k*width {
			t.Fatalf("saturated: Len=%d Weight=%v cap=%d", full.Len(), full.Weight(), cap(full.data))
		}
	}

	// The same bound through the stratified entry point, on a sparse key.
	s := NewStratified(Schema{"g", "a", "b"}, 1, k, rng.NewLehmer64(4))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i % 300) // 5 tuples per stratum
	}
	s.ConsiderColumns([][]int64{keys, cols[1], cols[2]}, n)
	s.ForEach(func(key StratumKey, r *Reservoir) {
		if r.Len() != 5 || cap(r.data) > fillChunkTuples*width {
			t.Fatalf("stratum %v: %d tuples in cap %d", key, r.Len(), cap(r.data))
		}
	})
}

// TestConsiderColumnsInterleavedWithConsider checks the L-state restart:
// interleaving a per-row Consider between batches invalidates the
// precomputed gap and the reservoir stays consistent (correct weight,
// full, all tuples from the stream).
func TestConsiderColumnsInterleavedWithConsider(t *testing.T) {
	const n, k = 4000, 16
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	r := NewReservoir(k, 1, rng.NewLehmer64(5))
	r.ConsiderColumns([][]int64{vals[:1500]}, 1500)
	r.Consider([]int64{int64(1500)})
	tail := vals[1501:]
	r.ConsiderColumns([][]int64{tail}, len(tail))
	if r.Len() != k || r.Weight() != float64(n) {
		t.Fatalf("Len=%d Weight=%v, want %d and %d", r.Len(), r.Weight(), k, n)
	}
	seen := make(map[int64]bool, k)
	for i := 0; i < k; i++ {
		v := r.Tuple(i)[0]
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("tuple %d = %d out of stream or duplicated", i, v)
		}
		seen[v] = true
	}
}
