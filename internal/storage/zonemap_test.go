package storage

import (
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
