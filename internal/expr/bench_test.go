package expr

import (
	"fmt"
	"testing"

	"laqy/internal/algebra"
	"laqy/internal/rng"
	"laqy/internal/storage"
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

// BenchmarkRunLength sweeps the average run length of an RLE column to
// place storage's adoption threshold (rleMinAvgRun): the run-granular
// kernels over a hand-built EncodedCol — bypassing the adoption rule, which
// would decline the short-run cases — against the plain kernels on the same
// values, one morsel per iteration. produce has the column as the only
// conjunct; refine puts a 50% plain conjunct ahead of it. Run values are
// random, so at 50% selectivity neighbouring runs disagree and the per-run
// branch mispredicts; at 90% most runs fill.
func BenchmarkRunLength(b *testing.B) {
	const n = 64 << 10
	other := benchVec(n)
	for _, avg := range []int{4, 16, 64, 256} {
		r := rng.NewLehmer64(5)
		vals := make([]int64, 0, n)
		ec := &storage.EncodedCol{Name: "x", Kind: storage.EncRLE, Rows: n}
		for len(vals) < n {
			v := int64(r.Intn(1000))
			if k := len(ec.Values); k > 0 && ec.Values[k-1] == v {
				v = (v + 1) % 1000
			}
			ec.Values = append(ec.Values, v)
			ec.Starts = append(ec.Starts, int32(len(vals)))
			for l := min(1+r.Intn(2*avg-1), n-len(vals)); l > 0; l-- {
				vals = append(vals, v)
			}
		}
		cols := map[string][]int64{"a": other, "x": vals}
		for _, selPct := range []int64{50, 90} {
			onX := algebra.NewPredicate().WithRange("x", 0, selPct*10-1)
			for _, role := range []struct {
				name string
				pred algebra.Predicate
			}{{"produce", onX}, {"refine", onX.WithRange("a", 0, 499)}} {
				f, err := Compile(role.pred, func(name string) []int64 { return cols[name] })
				if err != nil {
					b.Fatal(err)
				}
				ef := &EncodedFilter{f: f, cols: make([]*storage.EncodedCol, len(f.cols))}
				ef.cols[len(f.cols)-1] = ec // "x" sorts last
				for _, kernel := range []struct {
					name     string
					selectFn func(start, end int, sel []int32) []int32
				}{{"rle", ef.SelectInto}, {"plain", f.SelectInto}} {
					b.Run(fmt.Sprintf("avgrun%d/sel%dpct/%s/%s", avg, selPct, role.name, kernel.name), func(b *testing.B) {
						sel := make([]int32, 0, n)
						b.SetBytes(n * 8 * int64(len(f.cols)))
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							sel = kernel.selectFn(0, n, sel[:0])
						}
						_ = sel
					})
				}
			}
		}
	}
}
