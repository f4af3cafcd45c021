package storage

import (
	"testing"
	"testing/quick"
)

func TestDictOrderPreserving(t *testing.T) {
	d := NewDict([]string{"EUROPE", "AMERICA", "ASIA", "AMERICA"})
	if d.Size() != 3 {
		t.Fatalf("Size() = %d, want 3 (duplicates coalesced)", d.Size())
	}
	am, ok1 := d.Code("AMERICA")
	as, ok2 := d.Code("ASIA")
	eu, ok3 := d.Code("EUROPE")
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("missing codes")
	}
	if !(am < as && as < eu) {
		t.Fatalf("codes not lexicographically ordered: %d %d %d", am, as, eu)
	}
	if d.Value(am) != "AMERICA" {
		t.Fatalf("Value(Code) roundtrip failed")
	}
	if _, ok := d.Code("AFRICA"); ok {
		t.Fatal("unknown value should not have a code")
	}
}

func TestDictRoundtripProperty(t *testing.T) {
	f := func(values []string) bool {
		if len(values) == 0 {
			return true
		}
		d := NewDict(values)
		for _, v := range values {
			c, ok := d.Code(v)
			if !ok || d.Value(c) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewTableValidation(t *testing.T) {
	a := &Column{Name: "a", Kind: KindInt64, Ints: []int64{1, 2, 3}}
	b := &Column{Name: "b", Kind: KindInt64, Ints: []int64{4, 5, 6}}
	tab, err := NewTable("t", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 3 {
		t.Fatalf("NumRows() = %d", tab.NumRows())
	}
	if tab.Column("a") != a || tab.Column("missing") != nil {
		t.Fatal("column lookup broken")
	}

	short := &Column{Name: "c", Kind: KindInt64, Ints: []int64{1}}
	if _, err := NewTable("t", a, short); err == nil {
		t.Fatal("mismatched lengths must be rejected")
	}
	dup := &Column{Name: "a", Kind: KindInt64, Ints: []int64{7, 8, 9}}
	if _, err := NewTable("t", a, dup); err == nil {
		t.Fatal("duplicate names must be rejected")
	}
	if _, err := NewTable("t", a, nil); err == nil {
		t.Fatal("nil column must be rejected")
	}
}

func TestTableSchema(t *testing.T) {
	d := NewDict([]string{"x"})
	tab := MustNewTable("t",
		&Column{Name: "k", Kind: KindInt64, Ints: []int64{1}},
		&Column{Name: "s", Kind: KindString, Ints: []int64{0}, Dict: d},
	)
	s := tab.Schema()
	if len(s) != 2 || s[0] != (Field{Name: "k", Kind: KindInt64}) || s[1] != (Field{Name: "s", Kind: KindString, Dict: d}) {
		t.Fatalf("schema = %v", s)
	}
	if s.Index("s") != 1 || s.Index("zzz") != -1 {
		t.Fatal("Schema.Index broken")
	}
	if got := tab.Column("s").StringAt(0); got != "x" {
		t.Fatalf("StringAt = %q", got)
	}
}

func TestStringAtPanicsOnIntColumn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := &Column{Name: "k", Kind: KindInt64, Ints: []int64{1}}
	c.StringAt(0)
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	tab := MustNewTable("lineorder", &Column{Name: "k", Kind: KindInt64, Ints: nil})
	if err := c.Register(tab); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(tab); err == nil {
		t.Fatal("duplicate registration must fail")
	}
	got, err := c.Table("lineorder")
	if err != nil || got != tab {
		t.Fatal("lookup failed")
	}
	if _, err := c.Table("nope"); err == nil {
		t.Fatal("unknown table must error")
	}
	if names := c.Names(); len(names) != 1 || names[0] != "lineorder" {
		t.Fatalf("Names() = %v", names)
	}
}

func TestMorsels(t *testing.T) {
	tests := []struct {
		n, size, wantCount, wantLastLen int
	}{
		{100, 30, 4, 10},
		{90, 30, 3, 30},
		{1, 30, 1, 1},
		{0, 30, 0, 0},
		{-5, 30, 0, 0},
	}
	for _, tc := range tests {
		ms := Morsels(tc.n, tc.size)
		if len(ms) != tc.wantCount {
			t.Fatalf("Morsels(%d,%d) count = %d, want %d", tc.n, tc.size, len(ms), tc.wantCount)
		}
		if tc.wantCount > 0 && ms[len(ms)-1].Len() != tc.wantLastLen {
			t.Fatalf("last morsel len = %d, want %d", ms[len(ms)-1].Len(), tc.wantLastLen)
		}
	}
}

func TestMorselsCoverage(t *testing.T) {
	f := func(n uint16, size uint8) bool {
		ms := Morsels(int(n), int(size))
		covered := 0
		prevEnd := 0
		for _, m := range ms {
			if m.Start != prevEnd || m.End <= m.Start {
				return false
			}
			covered += m.Len()
			prevEnd = m.End
		}
		return covered == int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMorselsDefaultSize(t *testing.T) {
	ms := Morsels(DefaultMorselSize*2+1, 0)
	if len(ms) != 3 {
		t.Fatalf("expected 3 default-size morsels, got %d", len(ms))
	}
}

func TestKindString(t *testing.T) {
	if KindInt64.String() != "int64" || KindString.String() != "string" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}
