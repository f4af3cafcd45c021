package storage

import (
	"errors"
	"runtime"
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

// TestAppenderWritesInPlace: the first append moves the open segment's
// rows into vectors with spare capacity; later appends write into it, past
// the rows of the versions already published, which read the same rows as
// before.
func TestAppenderWritesInPlace(t *testing.T) {
	const n, segRows = 1000, 2 * DefaultMorselSize
	c := registered(t, n, segRows)
	loaded, _ := c.Table("t")
	v1 := appendRun(t, c, n, 10, segRows)
	if got := cap(v1.spare[0]); got != DefaultMorselSize {
		t.Fatalf("capacity after the first append = %d, want one morsel", got)
	}
	v2 := appendRun(t, c, n+10, 5, segRows)
	v3 := appendRun(t, c, n+15, 5, segRows)
	if &v3.spare[0][0] != &v1.spare[0][0] || &v2.spare[0][0] != &v1.spare[0][0] {
		t.Fatal("an append within the spare capacity reallocated the open segment")
	}
	for _, v := range []*Table{loaded, v1, v2, v3} {
		ints := v.Column("v").Ints
		if cap(ints) != len(ints) || !slices.Equal(ints, segTable(t, v.NumRows()).Column("v").Ints) {
			t.Fatalf("version of %d rows: cap %d, rows changed", v.NumRows(), cap(ints))
		}
		for _, s := range v.Segments() {
			if vec := s.cols[0]; cap(vec) != len(vec) {
				t.Fatalf("version of %d rows, segment %d: cap %d over %d rows", v.NumRows(), s.ID(), cap(vec), len(vec))
			}
		}
	}
	if cur, _ := c.Table("t"); cur != v3 || v3.NumRows() != n+20 {
		t.Fatalf("current version has %d rows", cur.NumRows())
	}
}

// TestAppenderGrowth pins the open segment's growth rule: a new allocation
// holds at least one morsel, doubles what the segment holds, at least what
// it must hold, and never passes the segment's capacity; a batch that
// fills the segment spills the rest into a segment of its own.
func TestAppenderGrowth(t *testing.T) {
	const segRows = 8 * DefaultMorselSize // 524 288
	c := registered(t, 100_000, segRows)
	var caps []int
	for i, rows := 0, 100_000; i < 18; i++ {
		v := appendRun(t, c, rows, 30_000, segRows)
		rows += 30_000
		caps = append(caps, cap(v.spare[0]))
	}
	// Holding 30 000, 60 000, … rows: one morsel, then twice the rows held
	// whenever it is full (120 000 at 90 000, 240 000 at 150 000, 480 000 at
	// 270 000), capped at the segment (510 000); the 18th append fills it
	// and the 15 712 rows past it open a segment of one morsel.
	want := []int{DefaultMorselSize, DefaultMorselSize, 120_000, 120_000, 240_000, 240_000, 240_000, 240_000}
	for range 8 {
		want = append(want, 480_000)
	}
	want = append(want, segRows, DefaultMorselSize)
	if !slices.Equal(caps, want) {
		t.Fatalf("open-segment capacities %v, want %v", caps, want)
	}
	for _, tc := range []struct{ have, need, segRows, want int }{
		{0, 100, segRows, DefaultMorselSize},
		{100_000, 100_001, segRows, 200_000},
		{40_000, 40_001, DefaultMorselSize, DefaultMorselSize},
		{0, 3 * segRows, segRows, segRows},
	} {
		if got := openCapacity(tc.have, tc.need, tc.segRows); got != tc.want {
			t.Errorf("openCapacity(%d, %d, %d) = %d, want %d", tc.have, tc.need, tc.segRows, got, tc.want)
		}
	}
}

// TestAppendNeverCopiesSealedRows appends 60 batches of 2 500 rows to a
// 1 M-row table in 65 536-row segments, crossing at least two seals. Every
// sealed segment's vectors are the same backing arrays in every later
// version, an append allocates at most the batch plus one growth of the
// open segment, and every earlier version still reads its rows.
func TestAppendNeverCopiesSealedRows(t *testing.T) {
	const n, segRows, batchRows, appends = 1_000_000, DefaultMorselSize, 2_500, 60
	cols := []string{"a", "b", "c"}
	base := make([]*Column, len(cols))
	for i, name := range cols {
		vals := make([]int64, n)
		for r := range vals {
			vals[r] = int64(r*len(cols) + i)
		}
		base[i] = &Column{Name: name, Kind: KindInt64, Ints: vals}
	}
	tab, err := Resegment(MustNewTable("t", base...), segRows)
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
	versions := []*Table{tab}
	// Budget: the batch, one open-segment allocation of at most segRows
	// rows, and the segment list and headers.
	budget := uint64((batchRows+segRows)*8*len(cols) + 16<<10)
	var seals int
	for i := 0; i < appends; i++ {
		batch := make([][]int64, len(cols))
		for c := range batch {
			batch[c] = make([]int64, batchRows)
			for r := range batch[c] {
				batch[c][r] = int64((n+i*batchRows+r)*len(cols) + c)
			}
		}
		app, err := c.BeginAppend("t")
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err := app.Append(batch, segRows)
		runtime.ReadMemStats(&after)
		app.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Fatalf("append %d allocated %d bytes, budget %d", i, got, budget)
		}
		prev := versions[len(versions)-1]
		if v.NumSegments() > prev.NumSegments() {
			seals++
		}
		// Every segment sealed in the previous version is the same arrays
		// here; by induction, in every later version too.
		for _, s := range prev.Segments()[:prev.NumSegments()-1] {
			for ci := range cols {
				was, now := s.cols[ci], v.Segments()[s.ID()].cols[ci]
				if len(now) != len(was) || len(was) > 0 && &now[0] != &was[0] {
					t.Fatalf("append %d: sealed segment %d column %d moved or changed length", i, s.ID(), ci)
				}
			}
		}
		versions = append(versions, v)
	}
	if seals < 2 {
		t.Fatalf("%d appends sealed %d segments, want at least 2", appends, seals)
	}
	for _, v := range versions {
		for ci, col := range v.Columns() {
			for r, x := range col.Ints {
				if x != int64(r*len(cols)+ci) {
					t.Fatalf("version of %d rows: column %s row %d = %d", v.NumRows(), col.Name, r, x)
				}
			}
		}
	}
}

// TestReplaceIsCompareAndSwap: a version grown from one that is no longer
// current is refused, so it cannot drop the rows published in between.
func TestReplaceIsCompareAndSwap(t *testing.T) {
	c := registered(t, 100, 0)
	v0, _ := c.Table("t")
	v1 := appendRun(t, c, 100, 5, 0)
	stale, err := AppendColumns(v0, [][]int64{make([]int64, 10)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := v1.Column("v").Ints[100:]; !slices.Equal(got, []int64{100, 101, 102, 103, 104}) {
		t.Fatalf("a second version grown from v0 wrote over v1's rows: %v", got)
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

// FuzzAppendVersions grows a two-column table by batches of fuzzed sizes,
// several segment seals per input, and now and then grows a second version
// from an older one, which must claim no capacity the main line writes.
// After every step each version must read its rows — per segment and
// through the whole-table vectors — as the oracle gives them, and no
// earlier version may have changed.
func FuzzAppendVersions(f *testing.F) {
	f.Add(uint32(0), []byte{0x7f, 0x7f, 0x7f, 0x10})
	f.Add(uint32(DefaultMorselSize+100), []byte{0x01, 0x02, 0xff, 0x7f, 0x40, 0x81})
	f.Add(uint32(1), []byte{0x00, 0x80, 0x3f, 0xc0, 0x7f, 0x7f, 0x05})
	f.Fuzz(func(t *testing.T, base uint32, plan []byte) {
		const segRows = DefaultMorselSize
		if len(plan) > 8 {
			plan = plan[:8]
		}
		// want is the oracle: column c of row r on the main line, and on a
		// branch the rows from its fork on.
		want := func(r, c, fork int) int64 {
			if fork >= 0 && r >= fork {
				return -int64(r*2+c) - 1
			}
			return int64(r*2 + c)
		}
		rows := func(from, n, fork int) [][]int64 {
			out := [][]int64{make([]int64, n), make([]int64, n)}
			for c := range out {
				for i := range out[c] {
					out[c][i] = want(from+i, c, fork)
				}
			}
			return out
		}
		check := func(v *Table, fork int, whole bool) {
			t.Helper()
			for _, s := range v.Segments() {
				for c, name := range []string{"a", "b"} {
					vec := s.Column(name)
					if len(vec) != s.Rows() {
						t.Fatalf("%d rows, segment %d: %d rows of %s", v.NumRows(), s.ID(), len(vec), name)
					}
					for i, x := range vec {
						if x != want(s.Start()+i, c, fork) {
							t.Fatalf("%d rows, segment %d: %s row %d = %d", v.NumRows(), s.ID(), name, s.Start()+i, x)
						}
					}
				}
			}
			if !whole {
				return
			}
			for c, col := range v.Columns() {
				if len(col.Ints) != v.NumRows() {
					t.Fatalf("%d rows: whole %s has %d", v.NumRows(), col.Name, len(col.Ints))
				}
				for r, x := range col.Ints {
					if x != want(r, c, fork) {
						t.Fatalf("%d rows: whole %s row %d = %d", v.NumRows(), col.Name, r, x)
					}
				}
			}
		}
		n := int(base % (2 * segRows))
		first := rows(0, n, -1)
		tab := MustNewTable("t", &Column{Name: "a", Kind: KindInt64, Ints: first[0]}, &Column{Name: "b", Kind: KindInt64, Ints: first[1]})
		if base&1 == 0 {
			var err error
			if tab, err = Resegment(tab, segRows); err == nil {
				tab, err = Seal(tab)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		versions := []*Table{tab}
		for _, b := range plan {
			m := (int(b&0x7f) + 1) * 500
			if b&0x80 != 0 && len(versions) > 1 {
				// A second version from an older one: its rows are the
				// branch's, and it must not write where the main line did.
				from := versions[int(b)%(len(versions)-1)]
				branch, err := AppendColumns(from, rows(from.NumRows(), m, from.NumRows()), segRows)
				if err != nil {
					t.Fatal(err)
				}
				check(branch, from.NumRows(), true)
			}
			cur := versions[len(versions)-1]
			next, err := AppendColumns(cur, rows(cur.NumRows(), m, -1), segRows)
			if err != nil {
				t.Fatal(err)
			}
			check(next, -1, true)
			versions = append(versions, next)
			for _, v := range versions {
				check(v, -1, false)
			}
		}
		for _, v := range versions {
			check(v, -1, true)
		}
	})
}
