package sample

import (
	"math"
	"slices"
	"testing"

	"laqy/internal/rng"
)

// algorithmR is per-row Algorithm R (Vitter 1985), the reference the
// product's admission path is held to: the n-th considered tuple is
// admitted with probability k/n, replacing a uniformly chosen victim — one
// RNG draw per tuple past the fill. It lives here, not in the product: the
// engine admits through Builder.ConsiderColumns (Algorithm L).
func algorithmR(r *Reservoir, tuple []int64) {
	r.weight++
	if len(r.data) < r.k*r.width {
		r.data = append(r.data, tuple...)
		return
	}
	r.rngDraws++
	if slot := r.gen.Uint64n(uint64(r.weight)); slot < uint64(r.k) {
		copy(r.data[int(slot)*r.width:], tuple)
	}
}

// admit offers n column-major rows to r through the product entry point,
// Builder.ConsiderColumns, with r as the one stratum of a keyless sample.
func admit(r *Reservoir, cols [][]int64, n int) {
	s := NewBuilder(make(Schema, r.width), 0, r.k, nil)
	s.add(&StratumKey{}, *r)
	s.ConsiderColumns(cols, n)
	*r = s.res[0]
}

// addRow offers one tuple to s as a batch of one, the shape of a streamed
// event.
func addRow(s *Builder, tuple ...int64) {
	cols := make([][]int64, len(tuple))
	for c := range tuple {
		cols[c] = tuple[c : c+1]
	}
	s.ConsiderColumns(cols, 1)
}

// iota64 returns lo, lo+1, …, hi-1.
func iota64(lo, hi int64) []int64 {
	vals := make([]int64, 0, hi-lo)
	for v := lo; v < hi; v++ {
		vals = append(vals, v)
	}
	return vals
}

// inclusionCounts draws `trials` independent samples of the stream 0..n-1
// and accumulates, per bucket of n/buckets consecutive items, how many
// sampled items fell in it. draw builds one sample from gen and returns the
// sampled stream items.
func inclusionCounts(trials, n, buckets int, seed uint64, draw func(gen *rng.Lehmer64, vals []int64) []int64) []int64 {
	vals := iota64(0, int64(n))
	counts := make([]int64, buckets)
	width := n / buckets
	master := rng.NewLehmer64(seed)
	for t := 0; t < trials; t++ {
		for _, v := range draw(master.Split(uint64(t)), vals) {
			counts[min(int(v)/width, buckets-1)]++
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

// TestAlgorithmLChiSquareEquivalence holds the product's admission path,
// Builder.ConsiderColumns, to the same distributional contract as the
// Algorithm R oracle: every stream position is included with probability
// k/n. The oracle and four ways of feeding the product path — keyless in one
// batch, one row per batch (a streamed event), 37-row chunks (skip state
// carried across calls, mid-fill too), and keyed with two interleaved
// strata (a reservoir switch on every row) — are each tested against the
// uniform expectation with a chi-square goodness-of-fit at the 0.001 level
// (df=19, critical 43.82). Seeds are fixed, so this never flakes — it fails
// only if an admission path's inclusion probabilities are actually skewed.
func TestAlgorithmLChiSquareEquivalence(t *testing.T) {
	const (
		trials  = 400
		n       = 10_000
		k       = 100
		buckets = 20
		crit    = 43.82 // chi-square 0.999 quantile, df = buckets-1 = 19
	)
	oracle := func(gen *rng.Lehmer64, vals []int64) []int64 {
		r := NewReservoir(k, 1, gen)
		for i := range vals {
			algorithmR(r, vals[i:i+1])
		}
		return r.Tuples()
	}
	// keyless samples vals in a qcsWidth-0 sample, feeding it through feed.
	keyless := func(feed func(s *Builder, vals []int64)) func(*rng.Lehmer64, []int64) []int64 {
		return func(gen *rng.Lehmer64, vals []int64) []int64 {
			s := NewBuilder(Schema{"v"}, 0, k, gen)
			feed(s, vals)
			r := s.Stratum(StratumKey{})
			if s.TotalWeight() != n || r.Weight() != n {
				t.Fatalf("weights %v and %v, want %d", s.TotalWeight(), r.Weight(), n)
			}
			return r.Tuples()
		}
	}
	keyed := func(gen *rng.Lehmer64, vals []int64) []int64 {
		s := NewBuilder(Schema{"g", "v"}, 1, k, gen)
		g := make([]int64, len(vals))
		for i := range g {
			g[i] = int64(i % 2)
		}
		s.ConsiderColumns([][]int64{g, vals}, len(vals))
		var out []int64
		Seal(s, 1).ForEach(func(_ StratumKey, r *Reservoir) {
			for i := 0; i < r.Len(); i++ {
				out = append(out, r.Tuple(i)[1])
			}
		})
		return out
	}

	for _, tc := range []struct {
		name   string
		seed   uint64
		strata int
		draw   func(*rng.Lehmer64, []int64) []int64
	}{
		{"algorithmR-oracle", 101, 1, oracle},
		{"qcs0-batch", 202, 1, keyless(func(s *Builder, vals []int64) {
			s.ConsiderColumns([][]int64{vals}, len(vals))
		})},
		{"qcs0-perRow", 303, 1, keyless(func(s *Builder, vals []int64) {
			for i := range vals {
				s.ConsiderColumns([][]int64{vals[i : i+1]}, 1)
			}
		})},
		{"qcs0-chunked", 404, 1, keyless(func(s *Builder, vals []int64) {
			for len(vals) > 0 {
				c := min(37, len(vals))
				s.ConsiderColumns([][]int64{vals[:c]}, c)
				vals = vals[c:]
			}
		})},
		{"keyed", 505, 2, keyed},
	} {
		counts := inclusionCounts(trials, n, buckets, tc.seed, tc.draw)
		var total int64
		for _, c := range counts {
			total += c
		}
		if want := int64(trials * k * tc.strata); total != want {
			t.Fatalf("%s: total inclusions %d, want %d", tc.name, total, want)
		}
		stat := chiSquare(counts, float64(total)/buckets)
		if stat > crit {
			t.Fatalf("%s: chi-square %.2f exceeds %.2f (df=%d) — inclusion is not uniform: %v",
				tc.name, stat, crit, buckets-1, counts)
		}
		t.Logf("%s: chi-square %.2f (critical %.2f)", tc.name, stat, crit)
	}
}

// TestAlgorithmLDrawSavings pins the perf claim behind the admission path:
// for n >> k the geometric skip draws O(k·log(n/k)) random numbers where the
// Algorithm R oracle draws one per considered tuple past the fill. The
// ratio must be at least 10x; at n=1e6, k=64 it is ~500x.
func TestAlgorithmLDrawSavings(t *testing.T) {
	const (
		n = 1_000_000
		k = 64
	)
	vals := iota64(0, n)
	oracle := NewReservoir(k, 1, rng.NewLehmer64(1))
	for i := range vals {
		algorithmR(oracle, vals[i:i+1])
	}
	s := NewBuilder(Schema{"v"}, 0, k, rng.NewLehmer64(1))
	s.ConsiderColumns([][]int64{vals}, n)

	if oracle.rngDraws != n-k {
		t.Fatalf("oracle draws = %d, want n-k = %d", oracle.rngDraws, n-k)
	}
	if s.RNGDraws()*10 > oracle.rngDraws {
		t.Fatalf("admission drew %d vs the oracle's %d: want >= 10x fewer", s.RNGDraws(), oracle.rngDraws)
	}
	t.Logf("draws: oracle %d, ConsiderColumns %d (%.0fx fewer)",
		oracle.rngDraws, s.RNGDraws(), float64(oracle.rngDraws)/float64(s.RNGDraws()))
}

// TestRowFillGrowsInTuples pins the fill phase of admission: a stratum
// holding t < k tuples owns at most max(2t, fillChunkTuples) tuples of
// storage — whole tuples, doubling, never the k-tuple reservation that
// thousands of sparse strata could not afford — and at most k once full;
// every row offered before saturation is kept verbatim, in order, also when
// the fill continues on storage whose capacity is no multiple of the width
// (a restored reservoir).
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
	offGrid := &Reservoir{k: k, width: width, weight: r.weight, gen: r.gen.Substream(0x5C)}
	offGrid.data = append(r.data[:len(r.data):len(r.data)], 0)[:len(r.data)] // capacity off the tuple grid
	for _, r := range []*Reservoir{offGrid, r} {
		check(r, 700, k)
		check(r, k, n)
	}
	for _, full := range []*Reservoir{r, offGrid} {
		if full.Len() != k || full.Weight() != n || cap(full.data) > 2*k*width {
			t.Fatalf("saturated: Len=%d Weight=%v cap=%d", full.Len(), full.Weight(), cap(full.data))
		}
	}

	// The same bound through the stratified entry point, on a sparse key.
	s := NewBuilder(Schema{"g", "a", "b"}, 1, k, rng.NewLehmer64(4))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i % 300) // 5 tuples per stratum
	}
	s.ConsiderColumns([][]int64{keys, cols[1], cols[2]}, n)
	for id := range s.res {
		if r := &s.res[id]; r.Len() != 5 || cap(r.data) > fillChunkTuples*width {
			t.Fatalf("stratum %v: %d tuples in cap %d", s.index.Key(int32(id)), r.Len(), cap(r.data))
		}
	}
}

// TestConsiderColumnsInterleavedWithMerge admits rows into a merged
// stratum, restored into a builder: Algorithm 2 streaming a not-full
// reservoir through considerWeighted, or rewriting slots proportionally,
// leaves a reservoir that represents more rows than it holds and no skip
// schedule, and Restore keeps it so. Each trial keeps it consistent
// (correct weight, full, every tuple from the stream, none twice), and over
// the trials each part of the stream — the first sample's rows, the merged-in
// rows, the rows admitted after the merge — holds its share of the kept
// tuples within binomial tolerance. Restarting Algorithm L there, as if the
// reservoir had seen only k rows, keeps almost nothing but the last part.
func TestConsiderColumnsInterleavedWithMerge(t *testing.T) {
	const n, k, cut = 4000, 16, 1500
	trials := 4000
	if testing.Short() {
		trials = 1000
	}
	vals := iota64(0, n)
	for _, tc := range []struct {
		name string
		rest int // rows in the merged-in sample, from cut on
	}{
		{"considerWeighted", 3},
		{"proportional", 500},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var parts [3]int64 // kept tuples from [0,cut), [cut,cut+rest), the rest
			for trial := uint64(0); trial < uint64(trials); trial++ {
				a := NewBuilder(Schema{"v"}, 0, k, newGen(3*trial+5))
				a.ConsiderColumns([][]int64{vals[:cut]}, cut)
				b := NewBuilder(Schema{"v"}, 0, k, newGen(3*trial+6))
				b.ConsiderColumns([][]int64{vals[cut : cut+tc.rest]}, tc.rest)
				m, err := MergeStratified(a, b, newGen(3*trial+7), 1)
				if err != nil {
					t.Fatal(err)
				}
				if m.Stratum(StratumKey{}).lValid {
					t.Fatal("the merge left the skip schedule of the pre-merge stream in place")
				}
				c := NewBuilder(Schema{"v"}, 0, k, nil)
				if err := c.Restore(StratumKey{}, m.Stratum(StratumKey{})); err != nil {
					t.Fatal(err)
				}
				r := c.Stratum(StratumKey{})
				r.data = slices.Clone(r.data) // storage of the builder's own, not m's slab
				tail := vals[cut+tc.rest:]
				c.ConsiderColumns([][]int64{tail}, len(tail))
				if r.Len() != k || r.Weight() != n || c.TotalWeight() != n {
					t.Fatalf("Len=%d Weight=%v TotalWeight=%v, want %d, %d, %d",
						r.Len(), r.Weight(), c.TotalWeight(), k, n, n)
				}
				seen := make(map[int64]bool, k)
				for i := 0; i < k; i++ {
					v := r.Tuple(i)[0]
					if v < 0 || v >= n || seen[v] {
						t.Fatalf("tuple %d = %d out of stream or duplicated", i, v)
					}
					seen[v] = true
					switch {
					case v < cut:
						parts[0]++
					case v < cut+int64(tc.rest):
						parts[1]++
					default:
						parts[2]++
					}
				}
			}
			total := float64(trials * k)
			for i, rows := range []int{cut, tc.rest, n - cut - tc.rest} {
				p := float64(rows) / n
				// The k tuples of one trial are drawn without replacement, so
				// a binomial sd over all kept tuples is conservative.
				if sd := math.Sqrt(total * p * (1 - p)); math.Abs(float64(parts[i])-total*p) > 5*sd {
					t.Fatalf("part %d holds %.4f of the kept tuples, want %.4f ± %.4f (shares %v)",
						i, float64(parts[i])/total, p, 5*sd/total, parts)
				}
			}
			t.Logf("shares %.4f / %.4f / %.4f", float64(parts[0])/total, float64(parts[1])/total, float64(parts[2])/total)
		})
	}
}
