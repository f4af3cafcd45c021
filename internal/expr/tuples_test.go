package expr

import (
	"math"
	"slices"
	"testing"

	"laqy/internal/algebra"
	"laqy/internal/rng"
	"laqy/internal/sample"
)

// selectAll runs f over tuples laid out row-major with the given width.
func selectAll(f *TupleFilter, width int, tuples ...[]int64) []int32 {
	var data []int64
	for _, tu := range tuples {
		data = append(data, tu...)
	}
	return f.SelectTuples(data, width, nil)
}

func TestTupleFilter(t *testing.T) {
	schema := sample.Schema{"g", "key", "val"}
	f, err := CompileTuples(algebra.NewPredicate().WithRange("key", 10, 20), schema)
	if err != nil {
		t.Fatal(err)
	}
	got := selectAll(f, 3, []int64{1, 15, 99}, []int64{1, 25, 99}, []int64{2, 10, 0}, []int64{2, 21, 0})
	if !slices.Equal(got, []int32{0, 2}) {
		t.Fatalf("kept %v, want [0 2]", got)
	}
}

func TestTupleFilterMissingColumn(t *testing.T) {
	p := algebra.NewPredicate().WithRange("not_captured", 0, 1)
	if _, err := CompileTuples(p, sample.Schema{"g", "v"}); err == nil {
		t.Fatal("uncaptured predicate column must error")
	}
}

func TestTupleFilterMultiInterval(t *testing.T) {
	set := algebra.NewSet(algebra.Interval{Lo: 0, Hi: 1}, algebra.Interval{Lo: 5, Hi: 6})
	f, err := CompileTuples(algebra.NewPredicate().With("v", set), sample.Schema{"v"})
	if err != nil {
		t.Fatal(err)
	}
	got := selectAll(f, 1, []int64{0}, []int64{1}, []int64{2}, []int64{5}, []int64{7})
	if !slices.Equal(got, []int32{0, 1, 3}) {
		t.Fatalf("kept %v, want [0 1 3]", got)
	}
}

// oracleKeep is the naive reference for SelectTuples: per tuple, per
// constrained column, algebra.Set.Contains.
func oracleKeep(p algebra.Predicate, schema sample.Schema, data []int64) []int32 {
	width := len(schema)
	var kept []int32
	for i := 0; (i+1)*width <= len(data); i++ {
		ok := true
		for _, name := range p.Columns() {
			set, _ := p.Constraint(name)
			ok = ok && set.Contains(data[i*width+schema.Index(name)])
		}
		if ok {
			kept = append(kept, int32(i))
		}
	}
	return kept
}

// edgeValue draws from a pool that reaches both ends of int64 and crowds a
// small domain, so interval bounds and tuple values collide often.
func edgeValue(g *rng.Lehmer64) int64 {
	switch g.Intn(8) {
	case 0:
		return math.MinInt64 + int64(g.Intn(2))
	case 1:
		return math.MaxInt64 - int64(g.Intn(2))
	default:
		return int64(g.Intn(101)) - 50
	}
}

// randomSet returns a set of exactly m disjoint intervals over edgeValue's
// pool.
func randomSet(g *rng.Lehmer64, m int) algebra.Set {
	for {
		pts := make([]int64, 2*m)
		for i := range pts {
			pts[i] = edgeValue(g)
		}
		slices.Sort(pts)
		ivs := make([]algebra.Interval, m)
		for i := range ivs {
			ivs[i] = algebra.Interval{Lo: pts[2*i], Hi: pts[2*i+1]}
		}
		if set := algebra.NewSet(ivs...); len(set.Intervals()) == m {
			return set
		}
	}
}

// TestSelectTuplesMatchesSetOracle holds the compiled kernel to the naive
// per-column Set.Contains oracle over random 1–3-conjunct predicates whose
// conjuncts are 1-, 2- or 5-interval sets (the single, branchless-pair and
// Contains forms) × reservoirs of 0…k tuples, including MinInt64/MaxInt64
// bounds and values. Indices must be equal, survivors appended after an
// existing dst prefix, and Reservoir.Select's weight bitwise equal to
// w·kept/n over the oracle's count.
func TestSelectTuplesMatchesSetOracle(t *testing.T) {
	g := rng.NewLehmer64(20251015)
	schema := sample.Schema{"a", "b", "c", "d"}
	forms := map[int]int{}
	for trial := 0; trial < 3000; trial++ {
		p := algebra.NewPredicate()
		for _, ci := range g.Perm(len(schema))[:1+g.Intn(3)] {
			m := []int{1, 2, 5}[g.Intn(3)]
			forms[m]++
			p = p.With(schema[ci], randomSet(g, m))
		}
		f, err := CompileTuples(p, schema)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + g.Intn(40)
		s := sample.NewBuilder(schema, 0, k, g.Split(uint64(trial)))
		cols := make([][]int64, len(schema))
		for n := g.Intn(2*k + 1); n > 0; n-- {
			for c := range cols {
				cols[c] = append(cols[c], edgeValue(g))
			}
		}
		s.ConsiderColumns(cols, len(cols[0]))
		r := s.Stratum(sample.StratumKey{})
		if r == nil { // no row offered, no stratum: an empty reservoir
			r = sample.NewReservoir(k, len(schema), g.Split(uint64(trial)))
		}
		want := oracleKeep(p, schema, r.Tuples())
		prefix := []int32{-7, -8}
		got := f.SelectTuples(r.Tuples(), len(schema), slices.Clone(prefix))
		if !slices.Equal(got[:2], prefix) || !slices.Equal(got[2:], want) {
			t.Fatalf("trial %d (%v): kept %v, oracle %v", trial, p, got, want)
		}
		kept, w := r.Select(f, nil)
		wantW := 0.0
		if r.Len() > 0 {
			wantW = r.Weight() * float64(len(want)) / float64(r.Len())
		}
		if !slices.Equal(kept, want) || math.Float64bits(w) != math.Float64bits(wantW) {
			t.Fatalf("trial %d: Select = %v at %v, oracle %v at %v", trial, kept, w, want, wantW)
		}
	}
	if forms[1] == 0 || forms[2] == 0 || forms[5] == 0 {
		t.Fatalf("generator missed a conjunct form: %v", forms)
	}
}
