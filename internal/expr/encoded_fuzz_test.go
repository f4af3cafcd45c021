package expr

import (
	"testing"

	"laqy/internal/algebra"
	"laqy/internal/storage"
)

// fuzzExpand turns raw fuzz bytes into a column shaped by mode: 0 grows
// short run-length structure (runs of 1–4 rows that merge when the value
// holds: either side of the RLE adoption threshold), 1 lays a narrow domain
// out in long runs (RLE territory), 2 spreads values across the full int64
// domain (plain territory). Anything the encoder picks must round-trip and
// select identically, so the shapes just steer coverage.
func fuzzExpand(data []byte, mode uint8) []int64 {
	vals := make([]int64, 0, 4*len(data)+1)
	v := int64(0)
	for _, b := range data {
		switch mode % 3 {
		case 0:
			if b&7 == 0 {
				v += int64(b >> 3)
			}
			for j := 0; j < 1+int(b&3); j++ {
				vals = append(vals, v)
			}
		case 1:
			for j := 0; j < 64+int(b>>4); j++ {
				vals = append(vals, int64(b%23)-11)
			}
		default:
			v = v<<13 ^ int64(b)<<27 ^ int64(b)
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		vals = append(vals, int64(mode))
	}
	return vals
}

// FuzzEncodedColumn fuzzes the whole encoded-column contract: the chosen
// representation must decode back to the input bit for bit, SumRange must
// match the plain wrapping int64 sum, and a fuzzed interval predicate — and
// the two-interval Δ shape cut from it — must select exactly the same rows
// through the encoded kernels as a per-row reference.
func FuzzEncodedColumn(f *testing.F) {
	f.Add([]byte{0, 0, 0, 8, 8, 8, 16, 16, 255, 255}, uint8(0), int64(0), int64(4))
	f.Add([]byte("narrow domain in long runs"), uint8(1), int64(-11), int64(5))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251, 252}, uint8(2), int64(-1<<62), int64(1<<62))
	f.Add([]byte{42}, uint8(0), int64(42), int64(42))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8, lo, hi int64) {
		vals := fuzzExpand(data, mode)
		if lo > hi {
			lo, hi = hi, lo
		}

		// Encoder contract: round-trip, run geometry, sums, read bound.
		if ec := storage.EncodeColumn("x", vals); ec != nil {
			if ec.Rows != len(vals) {
				t.Fatalf("rows = %d, want %d", ec.Rows, len(vals))
			}
			// Const is adopted unconditionally (16 fixed bytes, O(1) access);
			// an RLE scan never reads more than the plain vector (the exact
			// run-length threshold is pinned in storage's own tests).
			if ec.Kind != storage.EncConst && ec.PhysBytes > int64(len(vals))*8 {
				t.Fatalf("%v adopted above the plain size: %d bytes for %d rows",
					ec.Kind, ec.PhysBytes, len(vals))
			}
			var sum int64
			for i, want := range vals {
				if got := ec.At(i); got != want {
					t.Fatalf("%v: At(%d) = %d, want %d", ec.Kind, i, got, want)
				}
				sum += want
			}
			dec := ec.DecodeInto(make([]int64, len(vals)), 0, len(vals))
			for i := range vals {
				if dec[i] != vals[i] {
					t.Fatalf("%v: DecodeInto[%d] = %d, want %d", ec.Kind, i, dec[i], vals[i])
				}
			}
			if got := ec.SumRange(0, len(vals)); got != sum {
				t.Fatalf("%v: SumRange = %d, want %d", ec.Kind, got, sum)
			}
			mid := len(vals) / 2
			if got := ec.SumRange(0, mid) + ec.SumRange(mid, len(vals)); got != sum {
				t.Fatalf("%v: split SumRange = %d, want %d", ec.Kind, got, sum)
			}
		}

		// Kernel contract: encoded selection == per-row reference, for the
		// fuzzed interval and for the Δ shape "the interval minus its middle
		// third" (one interval again when the thirds touch).
		enc := sealedEncoding(t, map[string][]int64{"x": vals})
		third := int64(uint64(hi-lo) / 3)
		for _, set := range []algebra.Set{
			algebra.SetOf(algebra.Interval{Lo: lo, Hi: hi}),
			algebra.NewSet(algebra.Interval{Lo: lo, Hi: lo + third}, algebra.Interval{Lo: hi - third, Hi: hi}),
		} {
			filt, err := Compile(algebra.NewPredicate().With("x", set),
				func(string) []int64 { return vals })
			if err != nil {
				t.Fatal(err)
			}
			ef := filt.BindEncoded(enc, 0)
			for _, r := range [][2]int{{0, len(vals)}, {len(vals) / 3, 2 * len(vals) / 3}} {
				var want []int32
				for i := r[0]; i < r[1]; i++ {
					if set.Contains(vals[i]) {
						want = append(want, int32(i))
					}
				}
				selEqual(t, "plain", filt.SelectInto(r[0], r[1], nil), want)
				if ef != nil { // nil: the encoder declined; only the plain path exists
					selEqual(t, "encoded", ef.SelectInto(r[0], r[1], nil), want)
				}
			}
		}
	})
}
