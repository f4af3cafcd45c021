package storage

import "testing"

// segTable builds an n-row single-column table whose values equal their row
// index, so zone-map bounds are predictable.
func segTable(t *testing.T, n int) *Table {
	t.Helper()
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	return MustNewTable("t", &Column{Name: "v", Kind: KindInt64, Ints: vals})
}

func TestSegmentsSynthesizedForPlainTable(t *testing.T) {
	tab := segTable(t, 1000)
	segs := tab.Segments()
	if len(segs) != 1 {
		t.Fatalf("NumSegments = %d, want 1", len(segs))
	}
	s := segs[0]
	if s.ID() != 0 || s.Start() != 0 || s.End() != 1000 || s.Version() != 1 {
		t.Fatalf("segment = id %d [%d,%d) v%d", s.ID(), s.Start(), s.End(), s.Version())
	}
	// The synthesized segment owns the table's one zone map.
	if zm := s.ZoneMap(); zm == nil || zm.Start() != 0 || zm.End() != 1000 {
		t.Fatalf("single segment's zone map = %+v, want one over [0,1000)", zm)
	}
}

func TestResegment(t *testing.T) {
	const n = 2*DefaultMorselSize + 100
	tab, err := Resegment(segTable(t, n), DefaultMorselSize)
	if err != nil {
		t.Fatal(err)
	}
	segs := tab.Segments()
	if len(segs) != 3 {
		t.Fatalf("NumSegments = %d, want 3", len(segs))
	}
	wantBounds := [][2]int{{0, DefaultMorselSize}, {DefaultMorselSize, 2 * DefaultMorselSize}, {2 * DefaultMorselSize, n}}
	for i, s := range segs {
		if s.ID() != i || s.Start() != wantBounds[i][0] || s.End() != wantBounds[i][1] {
			t.Fatalf("segment %d = id %d [%d,%d), want [%d,%d)",
				i, s.ID(), s.Start(), s.End(), wantBounds[i][0], wantBounds[i][1])
		}
	}
	// Per-segment zone maps answer in absolute row coordinates.
	lo, hi, ok := segs[1].ZoneMap().Bounds("v", DefaultMorselSize, 2*DefaultMorselSize)
	if !ok || lo != int64(DefaultMorselSize) || hi != int64(2*DefaultMorselSize-1) {
		t.Fatalf("segment zone bounds = [%d,%d] ok=%v", lo, hi, ok)
	}
}

func TestResegmentFloorsAtMorselSize(t *testing.T) {
	tab, err := Resegment(segTable(t, 3*DefaultMorselSize), 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.NumSegments(); got != 3 {
		t.Fatalf("NumSegments = %d, want 3 (segment rows floored at one morsel)", got)
	}
}

func TestSegmentTableAtUnevenAndEmpty(t *testing.T) {
	tab, err := SegmentTableAt(segTable(t, 1000), 100, 100, 900)
	if err != nil {
		t.Fatal(err)
	}
	segs := tab.Segments()
	if len(segs) != 4 {
		t.Fatalf("NumSegments = %d, want 4", len(segs))
	}
	if segs[1].Rows() != 0 {
		t.Fatalf("middle segment rows = %d, want 0 (empty cut)", segs[1].Rows())
	}
	if segs[1].ZoneMap() != nil {
		t.Fatal("empty segment must have a nil zone map")
	}
	if segs[3].Rows() != 100 {
		t.Fatalf("tail rows = %d, want 100", segs[3].Rows())
	}
}

// TestSealLayout: sealing a bulk-loaded table closes its last segment behind
// a fresh empty open one, keeps the data segments' boundaries, versions and
// zone-map caches, and is a no-op on a table that is already sealed.
func TestSealLayout(t *testing.T) {
	const n = 2*DefaultMorselSize + 100
	loaded, err := Resegment(segTable(t, n), DefaultMorselSize)
	if err != nil {
		t.Fatal(err)
	}
	tail := loaded.Segments()[2].ZoneMap() // force the build pre-seal
	tab, err := Seal(loaded)
	if err != nil {
		t.Fatal(err)
	}
	segs := tab.Segments()
	if len(segs) != 4 {
		t.Fatalf("segments = %d, want 3 data + 1 open", len(segs))
	}
	open := segs[3]
	if open.Rows() != 0 || open.Start() != n || open.Sealed() || open.ZoneMap() != nil {
		t.Fatalf("open segment: [%d,%d) sealed=%v zone=%v", open.Start(), open.End(), open.Sealed(), open.ZoneMap())
	}
	for i, s := range segs[:3] {
		was := loaded.Segments()[i]
		if !s.Sealed() || s.Start() != was.Start() || s.End() != was.End() || s.Version() != was.Version() {
			t.Fatalf("segment %d: [%d,%d) v%d sealed=%v, loaded as [%d,%d) v%d",
				i, s.Start(), s.End(), s.Version(), s.Sealed(), was.Start(), was.End(), was.Version())
		}
	}
	if segs[2].ZoneMap() != tail {
		t.Fatal("Seal must carry the data segments' zone maps (pointer identity)")
	}
	again, err := Seal(tab)
	if err != nil {
		t.Fatal(err)
	}
	if again != tab {
		t.Fatal("Seal of sealed table must be a no-op")
	}
}

// grow appends n rows (continuing the row-index values) via AppendColumns.
func grow(t *testing.T, tab *Table, n, segRows int) *Table {
	t.Helper()
	old := tab.Columns()[0]
	merged := make([]int64, 0, len(old.Ints)+n)
	merged = append(merged, old.Ints...)
	for i := 0; i < n; i++ {
		merged = append(merged, int64(len(old.Ints)+i))
	}
	nt, err := AppendColumns(tab, []*Column{{Name: "v", Kind: KindInt64, Ints: merged}}, segRows)
	if err != nil {
		t.Fatal(err)
	}
	return nt
}

func TestAppendColumnsRoutesToOpenSegment(t *testing.T) {
	segRows := DefaultMorselSize
	tab, err := Resegment(segTable(t, segRows+100), segRows)
	if err != nil {
		t.Fatal(err)
	}
	// Segment 0 is sealed (full); segment 1 is open with 100 rows.
	grown := grow(t, tab, 50, segRows)
	segs := grown.Segments()
	if len(segs) != 2 {
		t.Fatalf("NumSegments = %d, want 2", len(segs))
	}
	if segs[0].Version() != 1 || segs[0].Rows() != segRows {
		t.Fatalf("sealed segment changed: v%d rows %d", segs[0].Version(), segs[0].Rows())
	}
	if segs[1].Rows() != 150 || segs[1].Version() != 2 {
		t.Fatalf("open segment = rows %d v%d, want rows 150 v2", segs[1].Rows(), segs[1].Version())
	}

	// Overflow spills into fresh segments.
	grown2 := grow(t, grown, 2*segRows, segRows)
	segs = grown2.Segments()
	if len(segs) != 4 {
		t.Fatalf("NumSegments after spill = %d, want 4", len(segs))
	}
	if segs[1].Rows() != segRows || segs[2].Rows() != segRows {
		t.Fatalf("spill layout = %d,%d rows", segs[1].Rows(), segs[2].Rows())
	}
	if segs[3].Version() != 1 {
		t.Fatalf("fresh spill segment version = %d, want 1", segs[3].Version())
	}
	if got, want := grown2.NumRows(), segRows+100+50+2*segRows; got != want {
		t.Fatalf("rows = %d, want %d", got, want)
	}
}

func TestAppendColumnsSharesSealedZoneCaches(t *testing.T) {
	segRows := DefaultMorselSize
	tab, err := Resegment(segTable(t, segRows+100), segRows)
	if err != nil {
		t.Fatal(err)
	}
	sealed := tab.Segments()[0].ZoneMap() // force the build pre-append
	openBefore := tab.Segments()[1].ZoneMap()

	grown := grow(t, tab, 50, segRows)
	if got := grown.Segments()[0].ZoneMap(); got != sealed {
		t.Fatal("sealed segment must carry its zone map across the append (pointer identity)")
	}
	if got := grown.Segments()[1].ZoneMap(); got == openBefore {
		t.Fatal("grown open segment must re-summarize, not reuse the stale map")
	}
	// The fresh open-segment map covers the appended rows.
	lo, hi, ok := grown.Segments()[1].ZoneMap().Bounds("v", segRows, segRows+150)
	if !ok || lo != int64(segRows) || hi != int64(segRows+149) {
		t.Fatalf("open zone bounds = [%d,%d] ok=%v", lo, hi, ok)
	}
}

// TestAppendColumnsSealedLayoutResummarizesOpenOnly pins the append cost on
// the layout every registered table has (Resegment, then Seal, then small
// appends): the loaded segments — including the short one sealed at a row
// count that is not a multiple of the zone size — keep their zone maps by
// pointer across every append, and only the open segment's map is rebuilt.
func TestAppendColumnsSealedLayoutResummarizesOpenOnly(t *testing.T) {
	segRows := DefaultMorselSize
	loaded, err := Resegment(segTable(t, segRows+100), segRows)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Seal(loaded)
	if err != nil {
		t.Fatal(err)
	}
	full, short := tab.Segments()[0].ZoneMap(), tab.Segments()[1].ZoneMap()
	var openBefore *ZoneMap // the fresh open segment is empty: no map yet
	rows := segRows + 100
	for _, n := range []int{50, 30, 1} {
		tab = grow(t, tab, n, segRows)
		rows += n
		segs := tab.Segments()
		if len(segs) != 3 || segs[2].Start() != segRows+100 || segs[2].End() != rows {
			t.Fatalf("after +%d: %d segments, open [%d,%d)", n, len(segs), segs[2].Start(), segs[2].End())
		}
		if segs[0].ZoneMap() != full || segs[1].ZoneMap() != short {
			t.Fatalf("after +%d: a sealed segment re-summarized", n)
		}
		open := segs[2].ZoneMap()
		if open == nil || open == openBefore || open.Start() != segRows+100 || open.End() != rows {
			t.Fatalf("after +%d: open map %+v (previous %p)", n, open, openBefore)
		}
		lo, hi, ok := open.Bounds("v", segRows+100, rows)
		if !ok || lo != int64(segRows+100) || hi != int64(rows-1) {
			t.Fatalf("after +%d: open zone bounds = [%d,%d] ok=%v", n, lo, hi, ok)
		}
		openBefore = open
	}
}

func TestAppendColumnsValidates(t *testing.T) {
	tab := segTable(t, 100)
	if _, err := AppendColumns(tab, nil, 0); err == nil {
		t.Fatal("column count mismatch must error")
	}
	if _, err := AppendColumns(tab, []*Column{{Name: "w", Kind: KindInt64, Ints: make([]int64, 200)}}, 0); err == nil {
		t.Fatal("renamed column must error")
	}
	if _, err := AppendColumns(tab, []*Column{{Name: "v", Kind: KindInt64, Ints: make([]int64, 50)}}, 0); err == nil {
		t.Fatal("shrinking append must error")
	}
}
