package expr

//laqy:allow rngsource randomized equivalence inputs; determinism comes from fixed seeds, not laqy/internal/rng

import (
	"math"
	"math/rand"
	"testing"

	"laqy/internal/algebra"
	"laqy/internal/storage"
)

// sealedEncoding builds a one-segment sealed table from the given column
// vectors and returns its SegmentEncoding (possibly with zero encoded
// columns if the heuristic declined everything).
func sealedEncoding(t testing.TB, cols map[string][]int64) *storage.SegmentEncoding {
	t.Helper()
	var sc []*storage.Column
	for name, vals := range cols {
		sc = append(sc, &storage.Column{Name: name, Kind: storage.KindInt64, Ints: vals})
	}
	tab, err := storage.NewTable("t", sc...)
	if err != nil {
		t.Fatal(err)
	}
	tab, err = storage.Resegment(tab, 0)
	if err != nil {
		t.Fatal(err)
	}
	tab, err = storage.Seal(tab)
	if err != nil {
		t.Fatal(err)
	}
	return tab.Segments()[0].Encoding()
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

// TestEncodedSelectEquivalence drives random predicates over columns shaped
// for each encoding (RLE runs, const, and two columns that stay plain — a
// shuffled narrow domain and wide noise — for the mixed plain-fallback
// cases) and pins the encoded SelectInto to the plain kernels' output, index
// for index.
func TestEncodedSelectEquivalence(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	const rows = 10_000
	cols := map[string][]int64{
		"runs":   make([]int64, rows),
		"narrow": make([]int64, rows),
		"const":  make([]int64, rows),
		"wide":   make([]int64, rows),
	}
	v := int64(0)
	for i := 0; i < rows; i++ {
		if rnd.Intn(100) == 0 {
			v += rnd.Int63n(5)
		}
		cols["runs"][i] = v
		cols["narrow"][i] = rnd.Int63n(200) - 100
		cols["const"][i] = 7
		cols["wide"][i] = int64(rnd.Uint64())
	}
	enc := sealedEncoding(t, cols)
	if enc.Col("runs") == nil || enc.Col("runs").Kind != storage.EncRLE {
		t.Fatalf("runs column: %+v", enc.Col("runs"))
	}
	if enc.Col("narrow") != nil {
		t.Fatalf("shuffled narrow column encoded: %+v", enc.Col("narrow"))
	}
	if enc.Col("const") == nil || enc.Col("const").Kind != storage.EncConst {
		t.Fatalf("const column: %+v", enc.Col("const"))
	}
	if enc.Col("wide") != nil {
		t.Fatalf("wide column unexpectedly encoded: %+v", enc.Col("wide"))
	}

	randRange := func(name string) algebra.Predicate {
		vals := cols[name]
		a, b := vals[rnd.Intn(rows)], vals[rnd.Intn(rows)]
		if a > b {
			a, b = b, a
		}
		return algebra.NewPredicate().WithRange(name, a, b)
	}
	// Interval sets over the RLE column on both sides of the k-interval
	// crossover: the run test goes through the branchless OR of compares up
	// to maxBranchlessIntervals and through Set.Contains above it.
	runSet := func(k int) algebra.Predicate {
		top := cols["runs"][rows-1]
		var ivs []algebra.Interval
		for j := 0; j < k; j++ {
			lo := int64(j) * (top + 1) / int64(k)
			ivs = append(ivs, algebra.Interval{Lo: lo, Hi: lo + rnd.Int63n(top/int64(2*k)+1)})
		}
		return algebra.NewPredicate().With("runs", algebra.NewSet(ivs...))
	}
	preds := []func() algebra.Predicate{
		func() algebra.Predicate { return randRange("runs") },
		func() algebra.Predicate { return runSet(2) },
		func() algebra.Predicate { return runSet(maxBranchlessIntervals) },
		func() algebra.Predicate { return runSet(maxBranchlessIntervals + 3) },
		// Two-interval plain conjunct refining an RLE producer and back.
		func() algebra.Predicate {
			return randRange("runs").With("narrow", algebra.NewSet(
				algebra.Interval{Lo: -90, Hi: -50}, algebra.Interval{Lo: 0, Hi: 10}))
		},
		// Const all-pass and all-fail.
		func() algebra.Predicate { return algebra.NewPredicate().WithRange("const", 0, 100) },
		func() algebra.Predicate { return algebra.NewPredicate().WithRange("const", 8, 100) },
		// Conjunctions mixing encodings, including the plain fallback.
		func() algebra.Predicate { return randRange("runs").WithRange("narrow", -40, 40) },
		func() algebra.Predicate { return randRange("narrow").WithRange("runs", 3, 1<<40) },
		func() algebra.Predicate { return randRange("runs").WithRange("wide", math.MinInt64, 0) },
		func() algebra.Predicate {
			return randRange("narrow").WithRange("const", 7, 7).WithRange("runs", 0, 1<<40)
		},
	}
	resolve := func(name string) []int64 { return cols[name] }
	for pi, mk := range preds {
		for trial := 0; trial < 50; trial++ {
			f, err := Compile(mk(), resolve)
			if err != nil {
				t.Fatal(err)
			}
			ef := f.BindEncoded(enc, 0)
			if ef == nil {
				t.Fatalf("pred %d: BindEncoded returned nil", pi)
			}
			start := rnd.Intn(rows)
			end := start + rnd.Intn(rows-start+1)
			want := f.SelectInto(start, end, nil)
			got := ef.SelectInto(start, end, nil)
			selEqual(t, "pred", got, want)
		}
	}
}

// TestEncodedSelectSegmentBase checks segment-relative addressing: the same
// rows selected when the segment does not start at absolute row 0.
func TestEncodedSelectSegmentBase(t *testing.T) {
	rows := 2 * storage.DefaultMorselSize
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(i / 1000) // RLE-friendly, values differ per segment
	}
	tab, err := storage.NewTable("t", &storage.Column{Name: "x", Kind: storage.KindInt64, Ints: vals})
	if err != nil {
		t.Fatal(err)
	}
	if tab, err = storage.Resegment(tab, storage.DefaultMorselSize); err != nil {
		t.Fatal(err)
	}
	if tab, err = storage.Seal(tab); err != nil {
		t.Fatal(err)
	}
	seg := tab.Segments()[1]
	if seg.Start() == 0 || seg.Encoding() == nil {
		t.Fatalf("segment 1: start=%d enc=%v", seg.Start(), seg.Encoding())
	}
	f, err := Compile(algebra.NewPredicate().WithRange("x", 70, 90), func(string) []int64 { return vals })
	if err != nil {
		t.Fatal(err)
	}
	ef := f.BindEncoded(seg.Encoding(), seg.Start())
	if ef == nil {
		t.Fatal("BindEncoded returned nil")
	}
	start, end := seg.Start()+123, seg.End()-77
	selEqual(t, "offset segment", ef.SelectInto(start, end, nil), f.SelectInto(start, end, nil))
}

// TestBindEncodedDeclines pins where no EncodedFilter is bound — the
// structural half of "never slower than the plain compare": conjuncts over
// columns storage left plain (wide noise, a shuffled narrow domain, average
// run 2) keep the plain kernels at zero per-morsel overhead, even beside an
// encoded column the filter does not mention.
func TestBindEncodedDeclines(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	cols := map[string][]int64{
		"wide":   make([]int64, 4096),
		"narrow": make([]int64, 4096),
		"run2":   make([]int64, 4096),
		"one":    make([]int64, 4096),
	}
	for i := range cols["wide"] {
		cols["wide"][i] = int64(rnd.Uint64())
		cols["narrow"][i] = rnd.Int63n(50)
		cols["run2"][i] = int64(i / 2)
		cols["one"][i] = 1
	}
	enc := sealedEncoding(t, cols)
	if enc.NumEncoded() != 1 || enc.Col("one") == nil {
		t.Fatalf("encoded %d columns, want only the constant one", enc.NumEncoded())
	}
	resolve := func(name string) []int64 { return cols[name] }

	// Trivial filter: nothing to bind.
	f, err := Compile(algebra.NewPredicate(), resolve)
	if err != nil {
		t.Fatal(err)
	}
	if f.BindEncoded(enc, 0) != nil {
		t.Fatal("trivial filter bound")
	}
	// Filters only over un-encoded columns: no conjunct binds.
	for _, p := range []algebra.Predicate{
		algebra.NewPredicate().WithRange("wide", 0, 1<<32),
		algebra.NewPredicate().WithRange("narrow", 5, 20),
		algebra.NewPredicate().WithRange("run2", 100, 900).WithRange("narrow", 0, 30),
	} {
		if f, err = Compile(p, resolve); err != nil {
			t.Fatal(err)
		}
		if f.BindEncoded(enc, 0) != nil {
			t.Fatalf("plain-only filter %v bound", p)
		}
	}
	// Nil encoding (open segment).
	if f, err = Compile(algebra.NewPredicate().WithRange("one", 0, 10), resolve); err != nil {
		t.Fatal(err)
	}
	if f.BindEncoded(nil, 0) != nil {
		t.Fatal("nil encoding bound")
	}
}

// TestPassRuns pins the fused path's run decomposition: the union of the
// reported all-pass ranges must equal the plain selection exactly, and
// filters with a plain conjunct must refuse to decompose.
func TestPassRuns(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	const rows = 8192
	runsA := make([]int64, rows)
	runsB := make([]int64, rows)
	narrow := make([]int64, rows)
	a, b := int64(0), int64(100)
	for i := range runsA {
		if rnd.Intn(200) == 0 {
			a++
		}
		if rnd.Intn(120) == 0 {
			b += 3
		}
		runsA[i] = a
		runsB[i] = b
		narrow[i] = rnd.Int63n(30)
	}
	constCol := make([]int64, rows)
	for i := range constCol {
		constCol[i] = 5
	}
	cols := map[string][]int64{"ra": runsA, "rb": runsB, "narrow": narrow, "c": constCol}
	enc := sealedEncoding(t, cols)
	resolve := func(name string) []int64 { return cols[name] }

	for trial := 0; trial < 100; trial++ {
		lo1 := runsA[rnd.Intn(rows)]
		lo2 := runsB[rnd.Intn(rows)]
		p := algebra.NewPredicate().
			WithRange("ra", lo1, lo1+rnd.Int63n(8)).
			WithRange("rb", lo2, lo2+rnd.Int63n(20)).
			WithRange("c", 0, 5+rnd.Int63n(2))
		f, err := Compile(p, resolve)
		if err != nil {
			t.Fatal(err)
		}
		ef := f.BindEncoded(enc, 0)
		if ef == nil {
			t.Fatal("BindEncoded returned nil")
		}
		start := rnd.Intn(rows)
		end := start + rnd.Intn(rows-start+1)
		var got []int32
		prev := start // ranges ascend and never overlap; adjacent ones are not coalesced
		ok := ef.PassRuns(start, end, func(lo, hi int) {
			if lo < prev || hi <= lo || hi > end {
				t.Fatalf("bad range [%d,%d) after %d", lo, hi, prev)
			}
			prev = hi
			got = FillRange(got, lo, hi)
		})
		if !ok {
			t.Fatal("RLE/const filter must decompose")
		}
		selEqual(t, "passruns", got, f.SelectInto(start, end, nil))
	}

	// A plain conjunct blocks decomposition.
	f, err := Compile(algebra.NewPredicate().WithRange("ra", 0, 1<<40).WithRange("narrow", 3, 9), resolve)
	if err != nil {
		t.Fatal(err)
	}
	if ef := f.BindEncoded(enc, 0); ef == nil {
		t.Fatal("BindEncoded returned nil")
	} else if ef.PassRuns(0, rows, func(lo, hi int) { t.Fatal("fn called") }) {
		t.Fatal("plain conjunct must not decompose")
	}
}
