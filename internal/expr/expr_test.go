package expr

import (
	"testing"

	"laqy/internal/algebra"
	"laqy/internal/rng"
)

func resolver(cols map[string][]int64) func(string) []int64 {
	return func(name string) []int64 { return cols[name] }
}

func TestCompileUnknownColumn(t *testing.T) {
	p := algebra.NewPredicate().WithRange("missing", 0, 10)
	if _, err := Compile(p, resolver(nil)); err == nil {
		t.Fatal("unknown column must error")
	}
}

func TestTrivialFilterSelectsAll(t *testing.T) {
	f, err := Compile(algebra.NewPredicate(), resolver(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !f.Trivial() {
		t.Fatal("empty predicate should be trivial")
	}
	sel := f.SelectInto(3, 7, nil)
	want := []int32{3, 4, 5, 6}
	if len(sel) != len(want) {
		t.Fatalf("sel = %v", sel)
	}
	for i := range want {
		if sel[i] != want[i] {
			t.Fatalf("sel = %v", sel)
		}
	}
}

func TestSingleIntervalFilter(t *testing.T) {
	vec := []int64{5, 1, 9, 3, 7, 2, 8}
	p := algebra.NewPredicate().WithRange("x", 3, 7)
	f, err := Compile(p, resolver(map[string][]int64{"x": vec}))
	if err != nil {
		t.Fatal(err)
	}
	sel := f.SelectInto(0, len(vec), nil)
	want := map[int32]bool{0: true, 3: true, 4: true}
	if len(sel) != 3 {
		t.Fatalf("sel = %v", sel)
	}
	for _, idx := range sel {
		if !want[idx] {
			t.Fatalf("unexpected index %d", idx)
		}
	}
}

func TestMultiIntervalFilter(t *testing.T) {
	vec := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	set := algebra.NewSet(
		algebra.Interval{Lo: 1, Hi: 2},
		algebra.Interval{Lo: 7, Hi: 8},
	)
	p := algebra.NewPredicate().With("x", set)
	f, err := Compile(p, resolver(map[string][]int64{"x": vec}))
	if err != nil {
		t.Fatal(err)
	}
	sel := f.SelectInto(0, len(vec), nil)
	if len(sel) != 4 || sel[0] != 1 || sel[1] != 2 || sel[2] != 7 || sel[3] != 8 {
		t.Fatalf("sel = %v", sel)
	}
}

func TestConjunctionFilter(t *testing.T) {
	x := []int64{1, 2, 3, 4, 5, 6}
	y := []int64{10, 20, 30, 40, 50, 60}
	p := algebra.NewPredicate().WithRange("x", 2, 5).WithRange("y", 30, 60)
	f, err := Compile(p, resolver(map[string][]int64{"x": x, "y": y}))
	if err != nil {
		t.Fatal(err)
	}
	sel := f.SelectInto(0, len(x), nil)
	// x in [2,5] -> rows 1..4; y in [30,60] -> rows 2..5; both -> 2,3,4.
	if len(sel) != 3 || sel[0] != 2 || sel[1] != 3 || sel[2] != 4 {
		t.Fatalf("sel = %v", sel)
	}
}

func TestSelectIntoAppendsAndChunks(t *testing.T) {
	vec := make([]int64, 100)
	for i := range vec {
		vec[i] = int64(i)
	}
	p := algebra.NewPredicate().WithRange("x", 0, 99)
	f, _ := Compile(p, resolver(map[string][]int64{"x": vec}))
	sel := f.SelectInto(0, 50, nil)
	sel = f.SelectInto(50, 100, sel)
	if len(sel) != 100 {
		t.Fatalf("chunked selection lost rows: %d", len(sel))
	}
	for i, idx := range sel {
		if int(idx) != i {
			t.Fatalf("sel[%d] = %d", i, idx)
		}
	}
}

func TestFilterAgainstRowOracle(t *testing.T) {
	// Randomized cross-check: vectorized selection must agree with the
	// algebra-level predicate.
	r := rng.NewLehmer64(9)
	const n = 2000
	x := make([]int64, n)
	y := make([]int64, n)
	for i := range x {
		x[i] = int64(r.Intn(100))
		y[i] = int64(r.Intn(100))
	}
	cols := map[string][]int64{"x": x, "y": y}
	for trial := 0; trial < 50; trial++ {
		p := algebra.NewPredicate().
			WithRange("x", int64(r.Intn(50)), int64(50+r.Intn(50))).
			With("y", algebra.NewSet(
				algebra.Interval{Lo: int64(r.Intn(30)), Hi: int64(30 + r.Intn(30))},
				algebra.Interval{Lo: int64(70 + r.Intn(10)), Hi: int64(80 + r.Intn(19))},
			))
		f, err := Compile(p, resolver(cols))
		if err != nil {
			t.Fatal(err)
		}
		sel := f.SelectInto(0, n, nil)
		selected := make(map[int32]bool, len(sel))
		for _, idx := range sel {
			selected[idx] = true
		}
		for i := 0; i < n; i++ {
			want := p.Matches(map[string]int64{"x": x[i], "y": y[i]})
			if selected[int32(i)] != want {
				t.Fatalf("trial %d row %d: vectorized=%v oracle=%v",
					trial, i, selected[int32(i)], want)
			}
		}
	}
}
