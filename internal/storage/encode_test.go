package storage

//laqy:allow rngsource randomized equivalence inputs; determinism comes from fixed seeds, not laqy/internal/rng

import (
	"math"
	"math/rand"
	"testing"
)

// decodeAll materializes an encoded column for comparisons.
func decodeAll(e *EncodedCol) []int64 {
	return e.DecodeInto(make([]int64, e.Rows), 0, e.Rows)
}

func TestEncodeColumnConst(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = -42
	}
	ec := EncodeColumn("c", vals)
	if ec == nil || ec.Kind != EncConst {
		t.Fatalf("kind = %v, want const", ec)
	}
	if ec.Value != -42 || ec.Rows != 1000 || ec.PhysBytes != 16 {
		t.Fatalf("const col = %+v", ec)
	}
	for i, v := range decodeAll(ec) {
		if v != -42 {
			t.Fatalf("row %d = %d", i, v)
		}
	}
}

func TestEncodeColumnRLE(t *testing.T) {
	// Sorted with long runs and a huge value span — mirrors a date-clustered
	// fact column.
	var vals []int64
	for r := 0; r < 8; r++ {
		v := int64(r) * (math.MaxInt64 / 8)
		for j := 0; j < 500; j++ {
			vals = append(vals, v)
		}
	}
	ec := EncodeColumn("c", vals)
	if ec == nil || ec.Kind != EncRLE {
		t.Fatalf("kind = %v, want rle", ec)
	}
	if ec.NumRuns() != 8 {
		t.Fatalf("runs = %d, want 8", ec.NumRuns())
	}
	for i, v := range decodeAll(ec) {
		if v != vals[i] {
			t.Fatalf("row %d = %d, want %d", i, v, vals[i])
		}
	}
	// Run lookup edges: first/last row of each run.
	for ri := 0; ri < ec.NumRuns(); ri++ {
		if got := ec.RunContaining(int(ec.Starts[ri])); got != ri {
			t.Fatalf("RunContaining(start of %d) = %d", ri, got)
		}
		if got := ec.RunContaining(ec.RunEnd(ri) - 1); got != ri {
			t.Fatalf("RunContaining(end of %d) = %d", ri, got)
		}
	}
}

// TestEncodeColumnDeclines pins the never-slower adoption rule: a column is
// encoded only where the encoded scan beats the plain compare. Shuffled
// columns (narrow or wide domain) and short runs stay plain; the average run
// must reach rleMinAvgRun.
func TestEncodeColumnDeclines(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	const rows = 4096
	narrow := make([]int64, rows) // shuffled 7-bit domain: smaller packed, slower scanned
	wide := make([]int64, rows)
	run2 := make([]int64, rows) // average run 2: 12 bytes/run is ¾ of plain, still slower
	for i := range narrow {
		narrow[i] = 1_000_000 + rnd.Int63n(100)
		wide[i] = int64(rnd.Uint64())
		run2[i] = int64(i / 2)
	}
	for name, vals := range map[string][]int64{"narrow": narrow, "wide": wide, "run2": run2} {
		if ec := EncodeColumn(name, vals); ec != nil {
			t.Fatalf("%s column encoded as %v (%d bytes)", name, ec.Kind, ec.PhysBytes)
		}
	}
	if ec := EncodeColumn("empty", nil); ec != nil {
		t.Fatal("empty column must not encode")
	}

	// The threshold itself: average run rleMinAvgRun adopts, one row fewer
	// per run does not.
	atThreshold := make([]int64, rows)
	for i := range atThreshold {
		atThreshold[i] = int64(i / rleMinAvgRun)
	}
	ec := EncodeColumn("at", atThreshold)
	if ec == nil || ec.Kind != EncRLE || ec.NumRuns() != rows/rleMinAvgRun {
		t.Fatalf("average run %d: enc = %+v, want rle", rleMinAvgRun, ec)
	}
	if ec.PhysBytes > int64(rows)*8 {
		t.Fatalf("rle reads %d bytes, plain %d", ec.PhysBytes, rows*8)
	}
	below := make([]int64, rows)
	for i := range below {
		below[i] = int64(i / (rleMinAvgRun - 1))
	}
	if ec := EncodeColumn("below", below); ec != nil {
		t.Fatalf("average run %d encoded as %v", rleMinAvgRun-1, ec.Kind)
	}
}

func TestSumRangeMatchesNaive(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	cases := map[string][]int64{}
	// Const, RLE, and an RLE case with values that overflow int64 sums
	// (wrapping semantics must match the plain int64 accumulation).
	constCol := make([]int64, 777)
	for i := range constCol {
		constCol[i] = 9
	}
	cases["const"] = constCol
	var rle []int64
	for r := 0; r < 40; r++ {
		v := rnd.Int63n(1000) - 500
		for j := rleMinAvgRun + rnd.Intn(60); j > 0; j-- {
			rle = append(rle, v)
		}
	}
	cases["rle"] = rle
	big := make([]int64, 1024)
	for i := range big {
		big[i] = math.MaxInt64 - int64(i/128)
	}
	cases["wrap"] = big

	for name, vals := range cases {
		ec := EncodeColumn(name, vals)
		if ec == nil {
			t.Fatalf("%s: expected an encoding", name)
		}
		for trial := 0; trial < 200; trial++ {
			from := rnd.Intn(len(vals))
			to := from + rnd.Intn(len(vals)-from+1)
			var want int64
			for _, v := range vals[from:to] {
				want += v // wraps, same as the kernels
			}
			if got := ec.SumRange(from, to); got != want {
				t.Fatalf("%s (%v): SumRange(%d,%d) = %d, want %d", name, ec.Kind, from, to, got, want)
			}
		}
		if got := ec.SumRange(5, 5); got != 0 {
			t.Fatalf("%s: empty range sum = %d", name, got)
		}
	}
}

// sealed returns a table with all data rows sealed, laid out in segments of
// segRows.
func sealedTable(t *testing.T, name string, segRows int, cols ...*Column) *Table {
	t.Helper()
	tab, err := NewTable(name, cols...)
	if err != nil {
		t.Fatal(err)
	}
	tab, err = Resegment(tab, segRows)
	if err != nil {
		t.Fatal(err)
	}
	tab, err = Seal(tab)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestSealMakesSegmentsEncodable(t *testing.T) {
	vals := make([]int64, 3*DefaultMorselSize)
	for i := range vals {
		vals[i] = int64(i / DefaultMorselSize) // 3 runs, one per segment
	}
	tab := sealedTable(t, "t", DefaultMorselSize, &Column{Name: "x", Kind: KindInt64, Ints: vals})

	segs := tab.Segments()
	if len(segs) != 4 {
		t.Fatalf("segments = %d, want 3 data + 1 open", len(segs))
	}
	open := segs[len(segs)-1]
	if open.Rows() != 0 || open.Sealed() || open.Encoding() != nil {
		t.Fatalf("open segment: rows=%d sealed=%v", open.Rows(), open.Sealed())
	}
	for i := 0; i < 3; i++ {
		enc := segs[i].Encoding()
		if enc == nil {
			t.Fatalf("segment %d: no encoding", i)
		}
		ec := enc.Col("x")
		if ec == nil || ec.Kind != EncConst {
			t.Fatalf("segment %d: col = %+v, want const", i, ec)
		}
	}
	// Sealing an all-sealed table is a no-op (same version back).
	again, err := Seal(tab)
	if err != nil {
		t.Fatal(err)
	}
	if again != tab {
		t.Fatal("Seal of sealed table must be a no-op")
	}
}

func TestEncodingCarriesAcrossAppend(t *testing.T) {
	vals := make([]int64, 2*DefaultMorselSize)
	for i := range vals {
		vals[i] = int64(i % 50)
	}
	tab := sealedTable(t, "t", DefaultMorselSize, &Column{Name: "x", Kind: KindInt64, Ints: vals})
	enc0 := tab.Segments()[0].Encoding()
	if enc0 == nil {
		t.Fatal("no encoding on sealed segment")
	}

	grownVals := append(append([]int64{}, vals...), 1, 2, 3)
	grown, err := AppendColumns(tab, []*Column{{Name: "x", Kind: KindInt64, Ints: grownVals}}, DefaultMorselSize)
	if err != nil {
		t.Fatal(err)
	}
	// The sealed segment's encoding is the same object — not rebuilt.
	if got := grown.Segments()[0].Encoding(); got != enc0 {
		t.Fatalf("append rebuilt the sealed segment's encoding: %p != %p", got, enc0)
	}
	// The appended rows live in an open segment that stays plain.
	segs := grown.Segments()
	if segs[len(segs)-1].Encoding() != nil {
		t.Fatal("open segment encoded after append")
	}
}

func TestEncodedSizes(t *testing.T) {
	vals := make([]int64, DefaultMorselSize)
	for i := range vals {
		vals[i] = 7 // const-encodes: 16 bytes vs 512 KiB plain
	}
	tab := sealedTable(t, "t", DefaultMorselSize, &Column{Name: "x", Kind: KindInt64, Ints: vals})

	// Before any build, the built view counts plain on both ledgers.
	phys, logical := tab.EncodedSizesBuilt()
	wantLogical := int64(DefaultMorselSize) * 8
	if phys != wantLogical || logical != wantLogical {
		t.Fatalf("built sizes before build = (%d, %d), want (%d, %d)", phys, logical, wantLogical, wantLogical)
	}
	// Forcing builds shrinks physical to the const encoding.
	phys, logical = tab.EncodedSizes()
	if logical != wantLogical || phys != 16 {
		t.Fatalf("forced sizes = (%d, %d), want (16, %d)", phys, logical, wantLogical)
	}
	// And the built view now agrees.
	if phys, _ = tab.EncodedSizesBuilt(); phys != 16 {
		t.Fatalf("built sizes after build = %d, want 16", phys)
	}
}
