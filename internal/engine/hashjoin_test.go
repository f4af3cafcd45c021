package engine

import (
	"math"
	"math/big"
	"slices"
	"testing"
)

// FuzzJoinProbe checks both probe entries — probeRange over a whole morsel
// and probe over a selection vector — against a map-based oracle, for both
// join-table representations: the table newJoinTable builds and, when that is
// an array, a hash-map twin over the same kept rows.
//
// The input spells up to 64 dimension keys in one of four layouts (dense,
// 10⁹ apart, both ends of int64, the bottom end alone; a repeated byte is a
// repeated key, which the build must refuse exactly when two kept rows share
// it), the kept mask, fact keys (dimension keys, their neighbours, the
// bounds ± 1 of the kept keys and of all keys, and both ends of int64, so
// keys below lo wrap around and keys past the full span miss), the morsel
// start — the rows before it hold other keys, so a probe that ignores start
// reads the wrong ones — the selection mask and 0–2 joins probed before this
// one, whose dimRows vectors the selection entry must compact along. The
// test also checks the array's layout (miss slot, span, lo) against the rule
// restated from the kept and all keys.
func FuzzJoinProbe(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 200, 201, 255}, []byte{3, 1, 2, 0}, uint8(0), uint64(0b1011), uint64(math.MaxUint64), uint16(5), uint8(0))
	f.Add([]byte{7, 9, 250, 251, 1, 2}, []byte{9, 7, 1, 2, 200}, uint8(1), uint64(0b10111), uint64(0b101101), uint16(100), uint8(1))
	f.Add([]byte{0, 1, 192, 193, 194, 195, 2}, []byte{0, 1, 2, 255}, uint8(2), uint64(0b1111), uint64(0b1110111), uint16(3), uint8(2))
	f.Add([]byte{4, 5, 196, 197, 6}, []byte{0, 1, 2, 3}, uint8(3), uint64(0), uint64(math.MaxUint64), uint16(1), uint8(2)) // keeps nothing
	f.Add([]byte{1, 1, 0, 2}, []byte{5, 5, 6}, uint8(0), uint64(0b011), uint64(math.MaxUint64), uint16(0), uint8(0))       // a key two kept rows share
	f.Fuzz(func(t *testing.T, factRaw, dimRaw []byte, layout uint8, keptMask, pickMask uint64, start uint16, nPrior uint8) {
		if len(dimRaw) > 64 {
			dimRaw = dimRaw[:64]
		}
		if len(factRaw) > 512 {
			factRaw = factRaw[:512]
		}
		nPrior %= 3
		dimKeys := make([]int64, len(dimRaw))
		for i, b := range dimRaw {
			v := int64(b)
			switch layout % 4 {
			case 0:
				dimKeys[i] = v - 100
			case 1:
				dimKeys[i] = v * 1_000_000_000
			case 2:
				if b%2 == 0 {
					dimKeys[i] = math.MinInt64 + v
				} else {
					dimKeys[i] = math.MaxInt64 - v
				}
			default:
				dimKeys[i] = math.MinInt64 + 2*v
			}
		}
		var kept []int32
		oracle := map[int64]int32{}
		dup := false
		for i, k := range dimKeys {
			if keptMask>>i&1 == 0 {
				continue
			}
			kept = append(kept, int32(i))
			if _, seen := oracle[k]; seen {
				dup = true
			}
			oracle[k] = int32(i)
		}
		jt, err := newJoinTable(dimKeys, kept)
		if dup != (err != nil) {
			t.Fatalf("build error %v, duplicate kept key %v", err, dup)
		}
		if dup {
			return
		}

		// The layout: an array when the kept keys span fewer than 32 values
		// per dimension row, over all the keys when they do too, with a −1
		// miss slot at 0.
		lo, hi := int64(0), int64(0)
		allLo, allHi := int64(0), int64(0)
		if len(dimKeys) > 0 {
			allLo, allHi = slices.Min(dimKeys), slices.Max(dimKeys)
		}
		if len(kept) > 0 {
			lo, hi = dimKeys[kept[0]], dimKeys[kept[0]]
			for _, i := range kept {
				lo, hi = min(lo, dimKeys[i]), max(hi, dimKeys[i])
			}
		}
		width := func(a, b int64) *big.Int { return new(big.Int).Sub(big.NewInt(b), big.NewInt(a)) }
		limit := big.NewInt(int64(len(dimKeys)) * denseSpanFactor)
		switch {
		case len(kept) == 0:
			if jt.rowByKey != nil || !slices.Equal(jt.rows, []int32{-1}) {
				t.Fatalf("a table that keeps nothing: map %v rows %v, want the miss slot alone", jt.rowByKey != nil, jt.rows)
			}
		case width(lo, hi).Cmp(limit) < 0:
			wantLo, wantLen := lo, new(big.Int).Add(width(lo, hi), big.NewInt(2))
			if all := width(allLo, allHi); all.Cmp(limit) < 0 {
				wantLo, wantLen = allLo, new(big.Int).Add(all, big.NewInt(2))
			}
			if jt.rowByKey != nil || jt.lo != wantLo || int64(len(jt.rows)) != wantLen.Int64() || jt.rows[0] != -1 {
				t.Fatalf("kept %d of %d keys: map %v lo %d len %d miss slot %d, want an array from %d of %v slots",
					len(kept), len(dimKeys), jt.rowByKey != nil, jt.lo, len(jt.rows), jt.rows[0], wantLo, wantLen)
			}
		case jt.rowByKey == nil:
			t.Fatalf("kept keys spanning %v over %d rows took an array", width(lo, hi), len(dimKeys))
		}

		// Fact keys: a byte below 192 names a dimension key, the others the
		// bounds ± 1 of the kept and of all keys, dimension keys ± 1 and both
		// ends of int64.
		specials := []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1, lo - 1, hi + 1, lo, hi, 0, -1,
			allLo - 1, allHi + 1, allLo, allHi, allHi + 2}
		probed := make([]int64, len(factRaw))
		for i, b := range factRaw {
			switch {
			case b < 192 && len(dimKeys) > 0:
				probed[i] = dimKeys[int(b)%len(dimKeys)]
			case b < 192:
				probed[i] = int64(b)
			case b < 224 && len(dimKeys) > 0:
				probed[i] = dimKeys[int(b)%len(dimKeys)] + int64(b%2)*2 - 1
			default:
				probed[i] = specials[int(b)%len(specials)]
			}
		}
		// The rows before the morsel hold the probed keys in reverse, so
		// they differ from the morsel's own rows at the same offsets.
		from := int(start % 1024)
		fact := make([]int64, from+len(probed))
		for i := 0; i < from && len(probed) > 0; i++ {
			fact[i] = probed[len(probed)-1-i%len(probed)]
		}
		copy(fact[from:], probed)
		jt.factKeyVec = fact

		checkProbes(t, withTwin(jt, oracle), oracle, fact, from, pickMask, int(nPrior))
	})
}

// withTwin returns jt and, when it is an array, a hash-map twin over oracle,
// the same kept rows.
func withTwin(jt joinTable, oracle map[int64]int32) []joinTable {
	if jt.rowByKey != nil {
		return []joinTable{jt}
	}
	twin := jt
	twin.rows, twin.rowByKey = nil, oracle
	return []joinTable{jt, twin}
}

// checkProbes holds both probe entries of each table to oracle over the fact
// keys (the tables' factKeyVec), from row from on: probeRange over the whole morsel as the first
// join, and probe over the rows pickMask picks (bit i%64 for row from+i)
// after nPrior joins whose dimRows vectors hold a marker per position.
func checkProbes(t *testing.T, tables []joinTable, oracle map[int64]int32, fact []int64, from int, pickMask uint64, nPrior int) {
	t.Helper()
	for _, tab := range tables {
		repr := "array"
		if tab.rowByKey != nil {
			repr = "map"
		}

		// The range entry: the whole morsel, first join, no prior vectors.
		var wantSel, wantOwn []int32
		for i := from; i < len(fact); i++ {
			if row, ok := oracle[fact[i]]; ok {
				wantSel, wantOwn = append(wantSel, int32(i)), append(wantOwn, row)
			}
		}
		tab.factKeyVec, tab.slot, tab.prior = fact, 0, nil
		sel := make([]int32, len(fact)-from)
		dimRows := [][]int32{make([]int32, len(fact)-from)}
		n := tab.probeRange(from, len(fact), sel, dimRows)
		if !slices.Equal(sel[:n], wantSel) || !slices.Equal(dimRows[0][:n], wantOwn) {
			t.Fatalf("%s probeRange(%d, %d): sel %v rows %v, want %v %v",
				repr, from, len(fact), sel[:n], dimRows[0][:n], wantSel, wantOwn)
		}

		// The selection entry: the picked rows, probed after nPrior joins
		// whose vectors hold a marker per position.
		tab.slot, tab.prior = nPrior, []int{0, 1}[:nPrior]
		sel = sel[:0]
		for i := from; i < len(fact); i++ {
			if pickMask>>((i-from)%64)&1 == 1 {
				sel = append(sel, int32(i))
			}
		}
		dimRows = make([][]int32, nPrior+1)
		for p := range dimRows {
			dimRows[p] = make([]int32, len(sel))
			for i := range sel {
				dimRows[p][i] = int32(1000*p + i)
			}
		}
		want := make([][]int32, nPrior+1)
		wantSel = wantSel[:0]
		for i, idx := range sel {
			row, ok := oracle[fact[idx]]
			if !ok {
				continue
			}
			wantSel = append(wantSel, idx)
			for p := range want[:nPrior] {
				want[p] = append(want[p], int32(1000*p+i))
			}
			want[nPrior] = append(want[nPrior], row)
		}
		in := slices.Clone(sel)
		n = tab.probe(sel, dimRows)
		if !slices.Equal(sel[:n], wantSel) {
			t.Fatalf("%s probe(%v) after %d joins: sel %v, want %v", repr, in, nPrior, sel[:n], wantSel)
		}
		for p := range want {
			if !slices.Equal(dimRows[p][:n], want[p]) {
				t.Fatalf("%s probe(%v) after %d joins: dimRows[%d] %v, want %v", repr, in, nPrior, p, dimRows[p][:n], want[p])
			}
		}
	}
}

// TestJoinTableShapes pins the layout of arrays in the SSB shapes, on keys
// 1..N (date's yyyymmdd keys for the date cases): which keys the array
// spans and its −1 miss slot, then holds both probe entries to a map oracle
// over every dimension key and keys below lo (down to math.MinInt64, where
// key−lo wraps around), past the full span and at math.MaxInt64.
func TestJoinTableShapes(t *testing.T) {
	seq := func(n int) []int64 {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(i + 1)
		}
		return keys
	}
	var dates []int64
	for y := int64(1992); y <= 1998; y++ {
		for m := int64(1); m <= 12; m++ {
			for d := int64(1); d <= 30; d++ {
				dates = append(dates, y*10000+m*100+d)
			}
		}
	}
	every := func(keys []int64, keep func(k int64) bool) []int64 {
		var out []int64
		for _, k := range keys {
			if keep(k) {
				out = append(out, k)
			}
		}
		return out
	}
	for _, tc := range []struct {
		name       string
		keys, kept []int64
		lo         int64 // the array's first key
		slots      int   // len(rows), the miss slot included
	}{
		// Q2.3: one brand of 1 000 parts.
		{"one of 1000", seq(1000), []int64{239}, 1, 1001},
		// Q3.3: two suppliers of 250, spread across a 76-key span.
		{"two of 250 spread", seq(250), []int64{13, 88}, 1, 251},
		// Q2.2: eight brands of 1 000 parts, spanning 176 keys.
		{"eight of 1000 spread", seq(1000), []int64{100, 125, 150, 175, 200, 225, 250, 275}, 1, 1001},
		{"a fifth of 250", seq(250), every(seq(250), func(k int64) bool { return k%5 == 0 }), 1, 251},
		{"all of 100", seq(100), seq(100), 1, 101},
		// Six of seven years of dates (86 %), and one month (1.2 %): the
		// array spans all the dates' 61 130 keys.
		{"dates 1992-1997", dates, every(dates, func(k int64) bool { return k < 19980000 }), 19920101, 61131},
		{"dates 199712", dates, every(dates, func(k int64) bool { return k/100 == 199712 }), 19920101, 61131},
		// Keys spread too far for an array over all of them, but not over
		// the kept ones: the array spans the kept keys.
		{"kept span only", []int64{1, 2, 3, 1 << 40}, []int64{2, 3}, 2, 3},
		{"none of 10", seq(10), nil, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oracle := map[int64]int32{}
			var kept []int32
			for i, k := range tc.keys {
				if slices.Contains(tc.kept, k) {
					kept = append(kept, int32(i))
					oracle[k] = int32(i)
				}
			}
			jt, err := newJoinTable(tc.keys, kept)
			if err != nil {
				t.Fatal(err)
			}
			if jt.rowByKey != nil || jt.lo != tc.lo || len(jt.rows) != tc.slots || jt.rows[0] != -1 {
				t.Fatalf("map %v lo %d slots %d miss slot %d, want an array from %d of %d slots",
					jt.rowByKey != nil, jt.lo, len(jt.rows), jt.rows[0], tc.lo, tc.slots)
			}
			fact := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, tc.lo - 1, tc.keys[len(tc.keys)-1] + 1,
				tc.lo + int64(tc.slots) - 1, tc.lo + int64(tc.slots), math.MaxInt64}
			for _, k := range tc.keys {
				fact = append(fact, k, k)
			}
			checkProbes(t, withTwin(jt, oracle), oracle, fact, 3, 0x5b5b_5b5b_5b5b_5b5b, 2)
		})
	}
}
