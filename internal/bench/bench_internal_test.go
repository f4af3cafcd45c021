package bench

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"laqy/internal/core"
)

// tiny returns a small dataset so harness tests validate structure, not
// performance.
func tiny(t *testing.T) *Data {
	t.Helper()
	d, err := NewData(Config{Rows: 60_000, Seed: 2, K: 64, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestTablePrinting(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Header: []string{"a", "bbbb"}}
	tab.Append("1", "2")
	tab.Append("333", "4")
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	if !strings.Contains(out, "== x: demo ==") || !strings.Contains(out, "333") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestFig3Shape(t *testing.T) {
	d := tiny(t)
	tab, err := Fig3(d).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 || len(tab.Header) != 4 {
		t.Fatalf("rows=%d header=%v", len(tab.Rows), tab.Header)
	}
	// Tuples column must be increasing.
	prev := int64(-1)
	for _, row := range tab.Rows {
		n, err := strconv.ParseInt(row[0], 10, 64)
		if err != nil || n <= prev {
			t.Fatalf("tuples column not increasing: %v", tab.Rows)
		}
		prev = n
	}
}

func TestFig4Shape(t *testing.T) {
	d := tiny(t)
	tab, err := Fig4(d).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestTable1ObservedStrata(t *testing.T) {
	d := tiny(t)
	tab, err := Table1(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[1] != row[2] {
			t.Fatalf("expected %s strata, observed %s (row %v)", row[1], row[2], row)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	d := tiny(t)
	tab, err := Fig6(d).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestFig8Shapes(t *testing.T) {
	d := tiny(t)
	for i, f := range Fig8(d) {
		tab, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		if tab.ID != "fig8"+string(rune('a'+i)) || len(tab.Rows) != len(f.Cases)/2 || len(tab.Header) != 3 {
			t.Fatalf("%s malformed: %d rows from %d cases", tab.ID, len(tab.Rows), len(f.Cases))
		}
		for _, row := range tab.Rows {
			if len(row) != 3 {
				t.Fatalf("%s row %v", tab.ID, row)
			}
		}
	}
}

func TestFig9And10Selectivities(t *testing.T) {
	d := tiny(t)
	for _, seq := range []Sequence{Long, Short} {
		r, err := RunSequence(d, seq, false)
		if err != nil {
			t.Fatal(err)
		}
		t9 := Fig9(r)
		wantLen := 50
		if seq == Short {
			wantLen = 60
		}
		if len(t9.Rows) != wantLen {
			t.Fatalf("fig9 rows = %d", len(t9.Rows))
		}
		// LAQy selectivity never exceeds online selectivity.
		for _, row := range t9.Rows {
			on := parsePct(t, row[2])
			lz := parsePct(t, row[3])
			if lz > on+1e-9 {
				t.Fatalf("laqy sel %v > online sel %v", lz, on)
			}
		}
		t10 := Fig10(r)
		last := t10.Rows[len(t10.Rows)-1]
		onCum := parsePct(t, last[1])
		lzCum := parsePct(t, last[2])
		if lzCum > 100+1e-9 {
			t.Fatalf("laqy cumulative selectivity %v%% exceeds 100%%", lzCum)
		}
		if lzCum > onCum {
			t.Fatalf("laqy cumulative above online")
		}
	}
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad pct %q", s)
	}
	return v
}

func TestRunSequenceQ1(t *testing.T) {
	d := tiny(t)
	r, err := RunSequence(d, Long, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Recs) != 50 {
		t.Fatalf("%d records", len(r.Recs))
	}
	if r.Recs[0].LazyMode != core.ModeOnline {
		t.Fatalf("first query mode = %v", r.Recs[0].LazyMode)
	}
	// Reuse must appear during the sequence.
	reused := 0
	for _, rec := range r.Recs[1:] {
		if rec.LazyMode != core.ModeOnline {
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("no reuse in a long-running sequence")
	}
	// Tables render from the result.
	for _, tab := range []*Table{Fig11(r), PerQueryTable(r), CumulativeTable(r)} {
		if len(tab.Rows) == 0 {
			t.Fatalf("%s empty", tab.ID)
		}
	}
	if r.Speedup() <= 0 {
		t.Fatalf("speedup = %v", r.Speedup())
	}
}

func TestRunSequenceQ2Short(t *testing.T) {
	d := tiny(t)
	r, err := RunSequence(d, Short, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Recs) != 60 {
		t.Fatalf("%d records", len(r.Recs))
	}
	if !r.Q2 || r.Seq != Short {
		t.Fatal("flags wrong")
	}
	tab := PerQueryTable(r)
	if tab.ID != "fig13b" {
		t.Fatalf("id = %s", tab.ID)
	}
	if CumulativeTable(r).ID != "fig15b" {
		t.Fatal("cumulative id wrong")
	}
	head := Headline([]*SeqResult{r})
	if len(head.Rows) != 1 {
		t.Fatal("headline malformed")
	}
}

func TestLazyNeverScansMoreThanOnline(t *testing.T) {
	d := tiny(t)
	r, err := RunSequence(d, Long, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range r.Recs {
		if rec.LazyMissing > rec.Step.Width() {
			t.Fatalf("query %d: delta %d keys wider than the query range %d",
				i, rec.LazyMissing, rec.Step.Width())
		}
	}
}

func TestQCSColumnsErrors(t *testing.T) {
	if _, err := qcsColumns(99); err == nil {
		t.Fatal("unsupported strata count must error")
	}
}

func TestAlphaExperiment(t *testing.T) {
	d := tiny(t)
	tab, err := Alpha(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 || len(tab.Header) != 6 {
		t.Fatalf("alpha table malformed: %v", tab.Header)
	}
	// Sample footprint must grow with alpha.
	prev := int64(-1)
	for _, row := range tab.Rows {
		bytes, err := strconv.ParseInt(row[2], 10, 64)
		if err != nil {
			t.Fatalf("bad bytes cell %q", row[2])
		}
		if bytes <= prev {
			t.Fatalf("footprint not increasing with alpha: %v", tab.Rows)
		}
		prev = bytes
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Header: []string{"a", "b"}}
	tab.Append("1", "has,comma")
	var sb strings.Builder
	if err := tab.Fcsv(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"has,comma\"\n"
	if sb.String() != want {
		t.Fatalf("csv = %q", sb.String())
	}
}

func TestReuseSweep(t *testing.T) {
	d := tiny(t)
	tab, err := ReuseSweep(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Modes must progress online → partial → offline as overlap grows.
	if tab.Rows[0][1] != "online" {
		t.Fatalf("0%% overlap mode = %s", tab.Rows[0][1])
	}
	for _, row := range tab.Rows[1:4] {
		if row[1] != "partial" {
			t.Fatalf("mid overlap mode = %s (row %v)", row[1], row)
		}
	}
	if tab.Rows[4][1] != "offline" {
		t.Fatalf("100%% overlap mode = %s", tab.Rows[4][1])
	}
	// Delta rows must shrink monotonically with overlap.
	prev := int64(1 << 62)
	for _, row := range tab.Rows {
		var delta int64
		if _, err := fmt.Sscan(row[2], &delta); err != nil {
			t.Fatal(err)
		}
		if delta > prev {
			t.Fatalf("delta rows not shrinking: %v", tab.Rows)
		}
		prev = delta
	}
}

func TestDriftExperiment(t *testing.T) {
	d := tiny(t)
	r, err := RunSequence(d, Drift, false)
	if err != nil {
		t.Fatal(err)
	}
	tab := DriftTable(r)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// LAQy must be mostly partial under drift; full-match-only degenerates
	// to online for nearly every query.
	last := tab.Rows[len(tab.Rows)-1]
	var off, part, on int
	if _, err := fmt.Sscanf(last[4], "%d/%d/%d", &off, &part, &on); err != nil {
		t.Fatal(err)
	}
	if off+part+on != 30 {
		t.Fatalf("mode counts = %s", last[4])
	}
	if part < 20 {
		t.Fatalf("drift should be dominated by partial reuse: %s", last[4])
	}
}

// TestTableAlignment pins Fprint's layout: columns padded to their widest
// cell and two spaces apart, no trailing blanks, notes under the rows.
func TestTableAlignment(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Header: []string{"a", "bbbb", "c"}, Notes: []string{"note"}}
	tab.Append("333", "4", "5")
	var sb strings.Builder
	tab.Fprint(&sb)
	want := "== x: demo ==\na    bbbb  c\n333  4     5\nnote\n\n"
	if sb.String() != want {
		t.Fatalf("Fprint = %q, want %q", sb.String(), want)
	}
}
