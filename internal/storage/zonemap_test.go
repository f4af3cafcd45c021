package storage

import (
	"slices"
	"testing"

	"laqy/internal/rng"
)

// zoneTable builds a single-column table with the given values.
func zoneTable(t *testing.T, name string, vals []int64) *Table {
	t.Helper()
	return MustNewTable("t",
		&Column{Name: name, Kind: KindInt64, Ints: vals},
	)
}

// buildZoneMap summarizes the whole of a single-segment table at a small
// zone size, so the cases below can spell their zones out.
func buildZoneMap(t *Table, zoneSize int) *ZoneMap {
	return buildZoneMapRange(t, 0, t.NumRows(), zoneSize)
}

func TestZoneMapBoundsSingleZone(t *testing.T) {
	tab := zoneTable(t, "c", []int64{5, -3, 9, 0})
	zm := buildZoneMap(tab, 8)
	if zm.NumZones() != 1 || zm.ZoneSize() != 8 {
		t.Fatalf("zones=%d size=%d", zm.NumZones(), zm.ZoneSize())
	}
	lo, hi, ok := zm.Bounds("c", 0, 4)
	if !ok || lo != -3 || hi != 9 {
		t.Fatalf("Bounds = (%d, %d, %v), want (-3, 9, true)", lo, hi, ok)
	}
}

func TestZoneMapBoundsFoldsZones(t *testing.T) {
	// Three zones of 4: [0..3]=[10,13], [4..7]=[2,5], [8..9]=[100,101].
	vals := []int64{10, 11, 12, 13, 2, 3, 4, 5, 100, 101}
	zm := buildZoneMap(zoneTable(t, "c", vals), 4)
	if zm.NumZones() != 3 {
		t.Fatalf("NumZones = %d, want 3", zm.NumZones())
	}
	cases := []struct {
		start, end int
		lo, hi     int64
	}{
		{0, 4, 10, 13},    // exactly zone 0
		{4, 8, 2, 5},      // exactly zone 1
		{8, 10, 100, 101}, // short tail zone
		{0, 8, 2, 13},     // zones 0+1 folded
		{2, 6, 2, 13},     // straddles 0/1: folds both (conservative)
		{0, 10, 2, 101},   // whole table
	}
	for _, c := range cases {
		lo, hi, ok := zm.Bounds("c", c.start, c.end)
		if !ok || lo != c.lo || hi != c.hi {
			t.Fatalf("Bounds(%d,%d) = (%d,%d,%v), want (%d,%d,true)",
				c.start, c.end, lo, hi, ok, c.lo, c.hi)
		}
	}
}

func TestZoneMapBoundsConservative(t *testing.T) {
	// Folded bounds must always contain the true min/max of the range:
	// the pruning contract is "no false exclusion", over-approximation is
	// fine. Fuzz random ranges against a brute-force oracle.
	rg := rng.NewLehmer64(7)
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(rg.Intn(2000)) - 1000
	}
	zm := buildZoneMap(zoneTable(t, "c", vals), 64)
	for trial := 0; trial < 200; trial++ {
		start := rg.Intn(len(vals))
		end := start + 1 + rg.Intn(len(vals)-start)
		lo, hi, ok := zm.Bounds("c", start, end)
		if !ok {
			t.Fatalf("Bounds(%d,%d) not ok", start, end)
		}
		mn, mx := vals[start], vals[start]
		for _, v := range vals[start:end] {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		if lo > mn || hi < mx {
			t.Fatalf("Bounds(%d,%d) = [%d,%d] excludes true range [%d,%d]",
				start, end, lo, hi, mn, mx)
		}
	}
}

func TestZoneMapBoundsUnknownAndEmpty(t *testing.T) {
	zm := buildZoneMap(zoneTable(t, "c", []int64{1, 2, 3}), 2)
	if _, _, ok := zm.Bounds("nope", 0, 3); ok {
		t.Fatal("unknown column reported ok")
	}
	if !zm.Column("c") || zm.Column("nope") {
		t.Fatal("Column membership wrong")
	}
	if _, _, ok := zm.Bounds("c", 2, 2); ok {
		t.Fatal("empty range reported ok")
	}
	if _, _, ok := zm.Bounds("c", -1, 2); ok {
		t.Fatal("negative start reported ok")
	}
	if _, _, ok := zm.Bounds("c", 0, 4); ok {
		t.Fatal("end past table reported ok")
	}
}

func TestTableZoneMapMemoizedPerVersion(t *testing.T) {
	tab := zoneTable(t, "c", []int64{1, 2, 3})
	a, b := tab.Segments()[0].ZoneMap(), tab.Segments()[0].ZoneMap()
	if a == nil || a != b {
		t.Fatalf("ZoneMap not memoized: %p vs %p", a, b)
	}
	// Copy-on-append invalidation: a new Table version (as append.go
	// constructs) builds its own summary covering the new rows.
	grown := MustNewTable("t",
		&Column{Name: "c", Kind: KindInt64, Ints: []int64{1, 2, 3, 99}},
	)
	g := grown.Segments()[0].ZoneMap()
	if g == a {
		t.Fatal("grown table shares the old table's zone map")
	}
	if _, hi, ok := g.Bounds("c", 0, 4); !ok || hi != 99 {
		t.Fatalf("grown bounds hi = %d, want 99", hi)
	}
}

func TestEmptyTableZoneMapNil(t *testing.T) {
	tab := MustNewTable("t", &Column{Name: "c", Kind: KindInt64, Ints: nil})
	if tab.Segments()[0].ZoneMap() != nil {
		t.Fatal("empty table should have nil zone map")
	}
}

// TestAppendExtendsOpenZoneMap is the differential test of the open
// segment's map across appends: three columns of random walks are appended
// in random batches through an Appender — a few rows, batches that cross
// DefaultMorselSize zones, and batches that fill the open segment and spill
// into new ones. After some appends every segment map of the versions not
// read yet is read (a query), after others none is, so the next append finds
// the old open segment's map built or still to extend, and an older version
// is read after a newer one extended its map. Every version's every segment
// map must equal buildZoneMapRange over that segment, column by column, and
// a map once read must not change when later versions extend it.
func TestAppendExtendsOpenZoneMap(t *testing.T) {
	const segRows = 2*DefaultMorselSize + 1000
	r := rng.NewLehmer64(46)
	cols := []string{"a", "b", "c"}
	walk := make([]int64, len(cols))
	batch := func(n int) [][]int64 {
		out := make([][]int64, len(cols))
		for c := range out {
			out[c] = make([]int64, n)
			for i := range out[c] {
				walk[c] += int64(r.Intn(2001)) - 1000
				out[c][i] = walk[c]
			}
		}
		return out
	}
	first := batch(DefaultMorselSize + 777)
	tab := MustNewTable("t", &Column{Name: "a", Kind: KindInt64, Ints: first[0]},
		&Column{Name: "b", Kind: KindInt64, Ints: first[1]}, &Column{Name: "c", Kind: KindInt64, Ints: first[2]})
	cat := NewCatalog()
	if err := cat.Register(tab); err != nil {
		t.Fatal(err)
	}

	type seen struct {
		zm   *ZoneMap
		copy map[string]zoneCol
	}
	var read []seen          // every map read so far, with a copy of its zones
	pending := []*Table{tab} // versions not read yet
	check := func(v *Table) {
		t.Helper()
		for _, seg := range v.Segments() {
			got := seg.ZoneMap()
			if seg.Rows() == 0 {
				continue
			}
			want := buildZoneMapRange(v, seg.Start(), seg.Rows(), DefaultMorselSize)
			if got.Start() != want.Start() || got.End() != want.End() || got.NumZones() != want.NumZones() {
				t.Fatalf("%d rows, segment %d: map [%d, %d) in %d zones, want [%d, %d) in %d",
					v.NumRows(), seg.ID(), got.Start(), got.End(), got.NumZones(), want.Start(), want.End(), want.NumZones())
			}
			for _, name := range cols {
				g, w := got.byName[name], want.byName[name]
				if !slices.Equal(g.mins, w.mins) || !slices.Equal(g.maxs, w.maxs) {
					t.Fatalf("%d rows, segment %d, column %s: mins %v maxs %v, want %v %v",
						v.NumRows(), seg.ID(), name, g.mins, g.maxs, w.mins, w.maxs)
				}
			}
			cp := map[string]zoneCol{}
			for name, zc := range got.byName {
				cp[name] = zoneCol{slices.Clone(zc.mins), slices.Clone(zc.maxs)}
			}
			read = append(read, seen{got, cp})
		}
	}
	var spilled, crossed, unread int
	for step := 0; step < 24; step++ {
		var n int
		switch r.Intn(4) {
		case 0:
			n = 1 + r.Intn(100)
		case 1:
			n = 1 + r.Intn(5000)
		case 2:
			n = DefaultMorselSize/2 + r.Intn(DefaultMorselSize)
		default:
			n = segRows/2 + r.Intn(segRows)
		}
		app, err := cat.BeginAppend("t")
		if err != nil {
			t.Fatal(err)
		}
		old := app.Table()
		next, err := app.Append(batch(n), segRows)
		app.Close()
		if err != nil {
			t.Fatal(err)
		}
		open := old.Segments()[old.NumSegments()-1]
		if next.NumSegments() > old.NumSegments() {
			spilled++
		}
		if (old.NumRows()-open.Start())/DefaultMorselSize != (old.NumRows()+n-1-open.Start())/DefaultMorselSize {
			crossed++
		}
		pending = append(pending, next)
		if r.Intn(2) == 0 {
			for _, v := range pending {
				check(v)
			}
			pending = pending[:0]
		} else {
			unread++
		}
		for _, s := range read {
			for name, zc := range s.zm.byName {
				if !slices.Equal(zc.mins, s.copy[name].mins) || !slices.Equal(zc.maxs, s.copy[name].maxs) {
					t.Fatalf("step %d: a map of [%d, %d) read earlier changed in column %s", step, s.zm.Start(), s.zm.End(), name)
				}
			}
		}
	}
	for _, v := range pending {
		check(v)
	}
	if spilled < 3 || crossed < 3 || unread < 3 {
		t.Fatalf("%d appends spilled, %d crossed a zone, %d left unread: the mix must reach each", spilled, crossed, unread)
	}
}
