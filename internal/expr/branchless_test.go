package expr

import (
	"math"
	"testing"

	"laqy/internal/algebra"
	"laqy/internal/rng"
)

// TestBranchlessRangeExtremes pins the wraparound range test
// uint64(v-lo) <= uint64(hi-lo) at the int64 boundaries, where a naive
// lo <= v && v <= hi rewrite would be equivalent but a buggy unsigned
// transform would wrap incorrectly.
func TestBranchlessRangeExtremes(t *testing.T) {
	const minI, maxI = math.MinInt64, math.MaxInt64
	vec := []int64{minI, minI + 1, -1, 0, 1, maxI - 1, maxI}
	cases := []struct {
		lo, hi int64
		want   []int32
	}{
		{minI, maxI, []int32{0, 1, 2, 3, 4, 5, 6}}, // full-range interval
		{minI, minI, []int32{0}},                   // point at the bottom
		{maxI, maxI, []int32{6}},                   // point at the top
		{-1, 1, []int32{2, 3, 4}},                  // straddles zero
		{minI, -1, []int32{0, 1, 2}},               // negative half
		{0, maxI, []int32{3, 4, 5, 6}},             // non-negative half
	}
	for _, c := range cases {
		p := algebra.NewPredicate().WithRange("x", c.lo, c.hi)
		f, err := Compile(p, resolver(map[string][]int64{"x": vec}))
		if err != nil {
			t.Fatal(err)
		}
		sel := f.SelectInto(0, len(vec), nil)
		if len(sel) != len(c.want) {
			t.Fatalf("[%d,%d]: sel = %v, want %v", c.lo, c.hi, sel, c.want)
		}
		for i := range c.want {
			if sel[i] != c.want[i] {
				t.Fatalf("[%d,%d]: sel = %v, want %v", c.lo, c.hi, sel, c.want)
			}
		}
	}
}

// TestIntervalConjuncts checks the zone-map contract: only single-interval
// conjuncts are reported, and `all` is true exactly when every conjunct is
// one interval.
func TestIntervalConjuncts(t *testing.T) {
	cols := map[string][]int64{"a": {1}, "b": {2}, "c": {3}}

	p := algebra.NewPredicate().WithRange("a", 3, 9).WithRange("b", -5, 5)
	f, err := Compile(p, resolver(cols))
	if err != nil {
		t.Fatal(err)
	}
	ivs, all := f.IntervalConjuncts()
	if !all || len(ivs) != 2 {
		t.Fatalf("ivs=%v all=%v, want 2 conjuncts and all=true", ivs, all)
	}
	got := map[string][2]int64{}
	for _, iv := range ivs {
		got[iv.Name] = [2]int64{iv.Lo, iv.Hi}
	}
	if got["a"] != [2]int64{3, 9} || got["b"] != [2]int64{-5, 5} {
		t.Fatalf("ivs = %v", ivs)
	}

	// Mixed: one single-interval conjunct, one multi-interval.
	pm := algebra.NewPredicate().WithRange("a", 3, 9).With("c", algebra.NewSet(
		algebra.Interval{Lo: 0, Hi: 1}, algebra.Interval{Lo: 10, Hi: 11},
	))
	fm, err := Compile(pm, resolver(cols))
	if err != nil {
		t.Fatal(err)
	}
	ivs, all = fm.IntervalConjuncts()
	if all || len(ivs) != 1 || ivs[0].Name != "a" {
		t.Fatalf("mixed: ivs=%v all=%v, want only 'a' and all=false", ivs, all)
	}

	// Trivial: nothing to report.
	ft, err := Compile(algebra.NewPredicate(), resolver(nil))
	if err != nil {
		t.Fatal(err)
	}
	if ivs, all = ft.IntervalConjuncts(); len(ivs) != 0 || !all {
		t.Fatalf("trivial: ivs=%v all=%v", ivs, all)
	}
}

// TestFillRange checks the compare-free range fill used by both the
// trivial-filter path and the engine's full-morsel fast path, including
// appending after existing entries and reuse of spare capacity.
func TestFillRange(t *testing.T) {
	sel := FillRange(nil, 2, 6)
	want := []int32{2, 3, 4, 5}
	if len(sel) != len(want) {
		t.Fatalf("sel = %v", sel)
	}
	for i := range want {
		if sel[i] != want[i] {
			t.Fatalf("sel = %v", sel)
		}
	}
	// Append after existing entries.
	sel = FillRange(sel[:2], 10, 13)
	want = []int32{2, 3, 10, 11, 12}
	for i := range want {
		if sel[i] != want[i] {
			t.Fatalf("appended sel = %v, want %v", sel, want)
		}
	}
	// Empty range is a no-op.
	if got := FillRange(sel, 5, 5); len(got) != len(sel) {
		t.Fatalf("empty fill grew sel: %v", got)
	}
}

// TestIntervalSetKernelsMatchReference is the k-interval property test: over
// random interval sets of 1–8 intervals — points, adjacent intervals (which
// the set coalesces), sets touching math.MinInt64 and math.MaxInt64 — the
// producer (the set constrains the first conjunct) and the refiner (it
// constrains a later one) must select exactly the rows a per-row
// Set.Contains picks, at unaligned offsets into the vector. The sets land on
// both sides of maxBranchlessIntervals, so the single-interval loop, the
// branchless OR of compares and the Set.Contains fallback are all held to
// the same reference.
func TestIntervalSetKernelsMatchReference(t *testing.T) {
	const minI, maxI = math.MinInt64, math.MaxInt64
	gen := rng.NewLehmer64(15)
	const rows = 3000
	// Values cluster around the int64 boundaries and zero so boundary-hugging
	// intervals select something.
	anchors := []int64{minI, minI + 40, -20, 0, 20, maxI - 40}
	draw := func() int64 { return anchors[gen.Intn(len(anchors))] + int64(gen.Intn(41)) }
	first, later, other := make([]int64, rows), make([]int64, rows), make([]int64, rows)
	for i := 0; i < rows; i++ {
		first[i], later[i], other[i] = draw(), draw(), int64(gen.Intn(100))
	}
	cols := map[string][]int64{"a": other, "b": later, "first": first}

	randSet := func(k int) algebra.Set {
		ivs := make([]algebra.Interval, k)
		for j := range ivs {
			lo := draw()
			switch gen.Intn(4) {
			case 0: // point
				ivs[j] = algebra.Point(lo)
			case 1: // adjacent to (or overlapping) the previous interval
				if j > 0 && ivs[j-1].Hi < maxI {
					lo = ivs[j-1].Hi + 1
				}
				ivs[j] = algebra.Interval{Lo: lo, Hi: lo + int64(gen.Intn(5))}
			case 2: // bounded by an end of the domain
				if gen.Intn(2) == 0 {
					ivs[j] = algebra.Interval{Lo: minI, Hi: minI + int64(gen.Intn(60))}
				} else {
					ivs[j] = algebra.Interval{Lo: maxI - int64(gen.Intn(60)), Hi: maxI}
				}
			default:
				ivs[j] = algebra.Interval{Lo: lo, Hi: lo + int64(gen.Intn(12))}
			}
			if ivs[j].Hi < ivs[j].Lo { // lo + width wrapped past MaxInt64
				ivs[j].Hi = maxI
			}
		}
		return algebra.NewSet(ivs...)
	}

	seen := map[int]int{} // canonical interval count -> trials
	for trial := 0; trial < 600; trial++ {
		set := randSet(1 + gen.Intn(8))
		seen[len(set.Intervals())]++
		start := gen.Intn(rows)
		end := start + gen.Intn(rows-start+1)

		// Producer: the set constrains the only conjunct.
		f, err := Compile(algebra.NewPredicate().With("first", set), resolver(cols))
		if err != nil {
			t.Fatal(err)
		}
		var want []int32
		for i := start; i < end; i++ {
			if set.Contains(first[i]) {
				want = append(want, int32(i))
			}
		}
		selEqual(t, "producer "+set.String(), f.SelectInto(start, end, nil), want)

		// Refiner: "a" sorts first and produces; the set refines on "b".
		f, err = Compile(algebra.NewPredicate().WithRange("a", 10, 79).With("b", set), resolver(cols))
		if err != nil {
			t.Fatal(err)
		}
		want = want[:0]
		for i := start; i < end; i++ {
			if other[i] >= 10 && other[i] <= 79 && set.Contains(later[i]) {
				want = append(want, int32(i))
			}
		}
		// A non-empty prefix checks the kernels append, never overwrite.
		got := f.SelectInto(start, end, []int32{-7})
		if got[0] != -7 {
			t.Fatalf("refiner %v: prefix clobbered: %d", set, got[0])
		}
		selEqual(t, "refiner "+set.String(), got[1:], want)
	}
	if seen[1] == 0 || seen[maxBranchlessIntervals] == 0 || seen[maxBranchlessIntervals+1] == 0 {
		t.Fatalf("interval counts drawn %v: want the single, branchless and Set.Contains arms all covered", seen)
	}
}

// selEqual fails unless a and b are identical index sequences.
func selEqual(t *testing.T, ctx string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d selected, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: sel[%d] = %d, want %d", ctx, i, got[i], want[i])
		}
	}
}
