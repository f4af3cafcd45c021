package storage

import (
	"errors"
	"slices"
	"testing"
)

// registered lays n rows of segTable out as a bulk load does (segments of
// segRows rows, sealed) in a fresh catalog.
func registered(t *testing.T, n, segRows int) *Catalog {
	t.Helper()
	tab, err := Resegment(segTable(t, n), segRows)
	if err == nil {
		tab, err = Seal(tab)
	}
	c := NewCatalog()
	if err == nil {
		err = c.Register(tab)
	}
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// appendRun appends the values from, …, from+n-1 to t's column v.
func appendRun(t *testing.T, c *Catalog, from, n, segRows int) *Table {
	t.Helper()
	app, err := c.BeginAppend("t")
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(from + i)
	}
	nt, err := app.Append([][]int64{vals}, segRows)
	if err != nil {
		t.Fatal(err)
	}
	return nt
}

// TestAppenderWritesInPlace: the first append moves the columns into
// vectors with spare capacity; later appends write into it, past the rows
// of the versions already published, which read the same rows as before.
func TestAppenderWritesInPlace(t *testing.T) {
	const n, segRows = 1000, DefaultMorselSize
	c := registered(t, n, segRows)
	loaded, _ := c.Table("t")
	v1 := appendRun(t, c, n, 10, segRows)
	if got := cap(c.tables["t"].vecs[0]); got != n+n/8 {
		t.Fatalf("capacity after the first append = %d, want %d", got, n+n/8)
	}
	v2 := appendRun(t, c, n+10, 10, segRows)
	if &v2.Column("v").Ints[0] != &v1.Column("v").Ints[0] {
		t.Fatal("an append within the spare capacity reallocated the column")
	}
	for _, v := range []*Table{loaded, v1, v2} {
		ints := v.Column("v").Ints
		if cap(ints) != len(ints) || !slices.Equal(ints, segTable(t, v.NumRows()).Column("v").Ints) {
			t.Fatalf("version of %d rows: cap %d, rows changed", v.NumRows(), cap(ints))
		}
	}
	if cur, _ := c.Table("t"); cur != v2 || v2.NumRows() != n+20 {
		t.Fatalf("current version has %d rows", cur.NumRows())
	}
}

// TestAppenderGrowth pins the growth rule: an eighth of the table, never
// past the end of the segment the new rows land in, and right up to that
// end when it is within a quarter of the table.
func TestAppenderGrowth(t *testing.T) {
	const segRows = DefaultMorselSize
	for _, tc := range []struct {
		rows, want int
	}{
		{100_000, 112_500},           // an eighth: the open segment ends at 165 536
		{300_000, 300_000 + segRows}, // the open segment's end is within a quarter
		{600_000, 600_000 + segRows}, // an eighth would pass the open segment's end
	} {
		c := registered(t, tc.rows, segRows)
		appendRun(t, c, tc.rows, 100, segRows)
		if got := cap(c.tables["t"].vecs[0]); got != tc.want {
			t.Errorf("%d rows: grew to %d, want %d", tc.rows, got, tc.want)
		}
	}
}

// TestReplaceIsCompareAndSwap: a version grown from one that is no longer
// current is refused, so it cannot drop the rows published in between.
func TestReplaceIsCompareAndSwap(t *testing.T) {
	c := registered(t, 100, 0)
	v0, _ := c.Table("t")
	v1 := appendRun(t, c, 100, 5, 0)
	stale, err := AppendColumns(v0, []*Column{{Name: "v", Kind: KindInt64, Ints: make([]int64, 110)}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Replace(v0, stale); !errors.Is(err, ErrTableChanged) {
		t.Fatalf("Replace from a stale version: %v, want ErrTableChanged", err)
	}
	if cur, _ := c.Table("t"); cur != v1 {
		t.Fatal("a refused Replace changed the current version")
	}
	if _, err := c.BeginAppend("missing"); err == nil {
		t.Fatal("BeginAppend on an unknown table must fail")
	}
}
