package engine

import (
	"math"
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
// table's bounds ± 1 and both ends of int64), the morsel start — the rows
// before it hold other keys, so a probe that ignores start reads the wrong
// ones — the selection mask and 0–2 joins probed before this one, whose
// dimRows vectors the selection entry must compact along.
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

		// Fact keys: a byte below 192 names a dimension key, the others the
		// kept keys' bounds ± 1, dimension keys ± 1 and both ends of int64.
		lo, hi := int64(0), int64(0)
		if len(kept) > 0 {
			lo, hi = dimKeys[kept[0]], dimKeys[kept[0]]
			for _, i := range kept {
				lo, hi = min(lo, dimKeys[i]), max(hi, dimKeys[i])
			}
		}
		specials := []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1, lo - 1, hi + 1, lo, hi, 0, -1}
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

		tables := []joinTable{jt}
		if jt.rowByKey == nil {
			twin := jt
			twin.rows, twin.rowByKey = nil, oracle
			tables = append(tables, twin)
		}
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
			tab.slot, tab.prior = 0, nil
			sel := make([]int32, len(probed))
			dimRows := [][]int32{make([]int32, len(probed))}
			n := tab.probeRange(from, len(fact), sel, dimRows)
			if !slices.Equal(sel[:n], wantSel) || !slices.Equal(dimRows[0][:n], wantOwn) {
				t.Fatalf("%s probeRange(%d, %d): sel %v rows %v, want %v %v",
					repr, from, len(fact), sel[:n], dimRows[0][:n], wantSel, wantOwn)
			}

			// The selection entry: the picked rows, probed after nPrior joins
			// whose vectors hold a marker per position.
			tab.slot, tab.prior = int(nPrior), []int{0, 1}[:nPrior]
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
	})
}
