package expr

import (
	"testing"

	"laqy/internal/algebra"
	"laqy/internal/rng"
)

// benchVec builds one morsel's worth of uniform random values in [0, 1000).
func benchVec(n int) []int64 {
	r := rng.NewLehmer64(77)
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(r.Intn(1000))
	}
	return v
}

// BenchmarkSelect measures the branchless single-interval selection kernel
// at the selectivities where branchy code suffers most: rare hits (1%),
// coin-flip hits (50%, maximally unpredictable), and near-all hits (99%).
// The uniform data defeats the zone map on purpose — this is the per-row
// kernel itself, one morsel per iteration.
func BenchmarkSelect(b *testing.B) {
	const n = 64 << 10
	vec := benchVec(n)
	cases := []struct {
		name   string
		lo, hi int64
	}{
		{"sel1pct", 0, 9},
		{"sel50pct", 0, 499},
		{"sel99pct", 0, 989},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			p := algebra.NewPredicate().WithRange("x", c.lo, c.hi)
			f, err := Compile(p, func(string) []int64 { return vec })
			if err != nil {
				b.Fatal(err)
			}
			sel := make([]int32, 0, n)
			b.SetBytes(n * 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sel = f.SelectInto(0, n, sel[:0])
			}
			_ = sel
		})
	}

	// Conjunction: branchless first pass + in-place refinement.
	b.Run("conjunction", func(b *testing.B) {
		vec2 := benchVec(n)
		p := algebra.NewPredicate().WithRange("x", 0, 499).WithRange("y", 0, 499)
		f, err := Compile(p, func(name string) []int64 {
			if name == "x" {
				return vec
			}
			return vec2
		})
		if err != nil {
			b.Fatal(err)
		}
		sel := make([]int32, 0, n)
		b.SetBytes(n * 16)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sel = f.SelectInto(0, n, sel[:0])
		}
		_ = sel
	})

	// Interval sets, one morsel of the plain vector each. delta2 is the
	// Δ-range shape (query range minus stored range: an interval either side
	// of the stored one) at 10% and 40% selectivity, multiinterval a
	// three-interval set — both on the branchless k-interval kernel;
	// setcontains is six intervals, past maxBranchlessIntervals, on the
	// per-row Set.Contains binary search.
	sets := []struct {
		name string
		ivs  []algebra.Interval
	}{
		{"delta2/sel10pct", []algebra.Interval{{Lo: 200, Hi: 249}, {Lo: 600, Hi: 649}}},
		{"delta2/sel40pct", []algebra.Interval{{Lo: 100, Hi: 299}, {Lo: 600, Hi: 799}}},
		{"multiinterval", []algebra.Interval{{Lo: 0, Hi: 99}, {Lo: 400, Hi: 499}, {Lo: 900, Hi: 999}}},
		{"setcontains", []algebra.Interval{{Lo: 0, Hi: 49}, {Lo: 150, Hi: 199}, {Lo: 300, Hi: 349},
			{Lo: 450, Hi: 499}, {Lo: 600, Hi: 649}, {Lo: 750, Hi: 799}}},
	}
	for _, c := range sets {
		b.Run(c.name, func(b *testing.B) {
			p := algebra.NewPredicate().With("x", algebra.NewSet(c.ivs...))
			f, err := Compile(p, func(string) []int64 { return vec })
			if err != nil {
				b.Fatal(err)
			}
			sel := make([]int32, 0, n)
			b.SetBytes(n * 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sel = f.SelectInto(0, n, sel[:0])
			}
			_ = sel
		})
	}
}

// BenchmarkFillRange measures the compare-free fill used by trivial filters
// and the engine's full-morsel fast path.
func BenchmarkFillRange(b *testing.B) {
	const n = 64 << 10
	sel := make([]int32, 0, n)
	b.SetBytes(n * 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sel = FillRange(sel[:0], 0, n)
	}
	_ = sel
}
