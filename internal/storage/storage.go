// Package storage implements the in-memory columnar storage substrate of the
// analytical engine: typed columns, tables, dictionaries for string
// attributes, and a catalog.
//
// The paper evaluates LAQy inside Proteus, an in-memory engine storing
// relations in a binary column layout. This package reproduces the storage
// model relevant to the experiments: dense integer columns scanned at memory
// bandwidth, and dictionary-encoded string columns whose predicates reduce
// to integer comparisons. All column data is held as []int64 so that every
// operator in the engine works over a single vector representation; string
// columns carry a dictionary mapping codes back to values.
package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind describes the logical type of a column.
type Kind uint8

const (
	// KindInt64 is a 64-bit integer column (also used for dates encoded as
	// yyyymmdd integers, as in SSB).
	KindInt64 Kind = iota
	// KindString is a dictionary-encoded string column; the physical vector
	// holds dictionary codes.
	KindString
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindInt64:
		return "int64"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Dict is an order-preserving string dictionary. Codes are assigned in
// sorted order when built via NewDict, so range predicates over the encoded
// column respect lexicographic order. Dictionaries are immutable after
// construction and safe for concurrent reads.
type Dict struct {
	values []string
	codes  map[string]int64
}

// NewDict builds a dictionary over the given distinct values. Values are
// sorted so that code order equals lexicographic order; duplicates are
// coalesced.
func NewDict(values []string) *Dict {
	uniq := make(map[string]struct{}, len(values))
	for _, v := range values {
		uniq[v] = struct{}{}
	}
	sorted := make([]string, 0, len(uniq))
	for v := range uniq {
		sorted = append(sorted, v)
	}
	sort.Strings(sorted)
	d := &Dict{values: sorted, codes: make(map[string]int64, len(sorted))}
	for i, v := range sorted {
		d.codes[v] = int64(i)
	}
	return d
}

// Code returns the dictionary code for value, or ok=false if the value is
// not in the dictionary.
func (d *Dict) Code(value string) (int64, bool) {
	c, ok := d.codes[value]
	return c, ok
}

// Value returns the string for a code. It panics on out-of-range codes,
// which indicate engine corruption rather than user error.
func (d *Dict) Value(code int64) string {
	return d.values[code]
}

// Size returns the number of distinct values.
func (d *Dict) Size() int { return len(d.values) }

// Column is a named, typed column whose physical representation is a dense
// []int64 vector. String columns store dictionary codes and carry the Dict.
type Column struct {
	Name string
	Kind Kind
	// Ints is the physical data vector: raw integers for KindInt64,
	// dictionary codes for KindString.
	Ints []int64
	// Dict is non-nil iff Kind == KindString.
	Dict *Dict
}

// Len returns the number of rows in the column.
func (c *Column) Len() int { return len(c.Ints) }

// StringAt returns the decoded string at row i for string columns.
func (c *Column) StringAt(i int) string {
	if c.Kind != KindString {
		// invariant: callers check Kind before decoding strings
		panic(fmt.Sprintf("storage: StringAt on %s column %q", c.Kind, c.Name))
	}
	return c.Dict.Value(c.Ints[i])
}

// Field describes one column of a schema: its name, kind and, for string
// columns, dictionary. Reading a table's fields never touches its rows.
type Field struct {
	Name string
	Kind Kind
	// Dict is non-nil iff Kind == KindString.
	Dict *Dict
}

// Schema is an ordered list of fields.
type Schema []Field

// Index returns the position of the named field, or -1.
func (s Schema) Index(name string) int {
	for i, f := range s {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Table is an immutable in-memory relation in column layout, split into
// segments (segment.go) that own their rows: segment i holds one vector per
// column, and a later version of the table shares its sealed segments'
// vectors unchanged.
type Table struct {
	Name string
	meta *tableMeta
	rows int
	segs []*Segment
	// spare holds the full-capacity vectors behind the open (last)
	// segment's rows, nil when it has none. The capacity past those rows is
	// written by the one later version that claims it (AppendColumns), so
	// two versions grown from this one never write the same memory.
	spare   [][]int64
	claimed atomic.Bool
	// columns are the whole-table vectors when the table lies in one
	// allocation (every table NewTable built, and the segmentings and seal
	// of one); nil otherwise, and built, the first time a caller needs
	// contiguous rows, into built.
	columns      []*Column
	wholeOnce    sync.Once
	built        []*Column
	concatenated atomic.Bool
}

// tableMeta is a table's schema, shared by every version of it: appends
// add rows, never columns.
type tableMeta struct {
	fields Schema
	index  map[string]int
}

// NewTable assembles a table from columns. All columns must have equal
// length; names must be unique. The table is one segment over the columns'
// vectors.
//
// Every column vector is clipped to its length (cap == len; a column with
// spare capacity gets a clipped header of its own): a reader's append to a
// column can never write past the table's rows, and no append writes
// through a caller's vector.
func NewTable(name string, columns ...*Column) (*Table, error) {
	t := &Table{Name: name, meta: &tableMeta{index: make(map[string]int, len(columns))}}
	for _, c := range columns {
		if c == nil {
			return nil, fmt.Errorf("storage: table %q: nil column", name)
		}
		if _, dup := t.meta.index[c.Name]; dup {
			return nil, fmt.Errorf("storage: table %q: duplicate column %q", name, c.Name)
		}
		if len(t.columns) > 0 && c.Len() != t.rows {
			return nil, fmt.Errorf("storage: table %q: column %q has %d rows, want %d",
				name, c.Name, c.Len(), t.rows)
		}
		t.rows = c.Len()
		if cap(c.Ints) > t.rows {
			c = &Column{Name: c.Name, Kind: c.Kind, Ints: c.Ints[:t.rows:t.rows], Dict: c.Dict}
		}
		t.meta.index[c.Name] = len(t.columns)
		t.meta.fields = append(t.meta.fields, Field{Name: c.Name, Kind: c.Kind, Dict: c.Dict})
		t.columns = append(t.columns, c)
	}
	if t.columns == nil {
		t.columns = []*Column{} // no columns: trivially one allocation
	}
	t.setSegments([]*Segment{{start: 0, end: t.rows, version: 1, cols: wholeVectors(t.columns, 0, t.rows)}})
	return t, nil
}

// MustNewTable is NewTable that panics on error, for generators and tests
// where the schema is statically correct.
func MustNewTable(name string, columns ...*Column) *Table {
	t, err := NewTable(name, columns...)
	if err != nil {
		// invariant: Must* callers pass statically correct schemas
		panic(err)
	}
	return t
}

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.rows }

// Columns returns the table's whole-table columns in schema order, for
// callers that need each column's rows contiguous. A table in one
// allocation returns its vectors as they are; any other version
// concatenates its segments' vectors once, on first use, and keeps them
// (Concatenated). Scans never call it: they read each segment's own vectors
// (Segment.Column). The slice must not be modified.
func (t *Table) Columns() []*Column {
	if t.columns != nil {
		return t.columns
	}
	t.wholeOnce.Do(func() {
		cols := make([]*Column, len(t.meta.fields))
		for i, f := range t.meta.fields {
			v := make([]int64, 0, t.rows)
			for _, s := range t.segs {
				v = append(v, s.cols[i]...)
			}
			cols[i] = &Column{Name: f.Name, Kind: f.Kind, Ints: v, Dict: f.Dict}
		}
		t.built = cols
		t.concatenated.Store(true)
	})
	return t.built
}

// Concatenated reports whether this version's whole-table columns were
// built by concatenating its segments (Columns). A table in one allocation
// never needs to; tests use it to prove a path reads segments only.
func (t *Table) Concatenated() bool { return t.concatenated.Load() }

// Column returns the named whole-table column (see Columns), or nil if
// absent. A check that a column exists, or a read of its kind or
// dictionary, takes Field, which never touches rows.
func (t *Table) Column(name string) *Column {
	i, ok := t.meta.index[name]
	if !ok {
		return nil
	}
	return t.Columns()[i]
}

// Field returns the named column's field, and whether the table has it.
func (t *Table) Field(name string) (Field, bool) {
	i, ok := t.meta.index[name]
	if !ok {
		return Field{}, false
	}
	return t.meta.fields[i], true
}

// Schema returns the table's schema. The slice must not be modified.
func (t *Table) Schema() Schema { return t.meta.fields }

// Catalog is a named collection of tables, safe for concurrent use: an
// append publishes a table's next version (Replace) beside queries planning
// against the catalog (Table). The catalog also owns each table's append
// lock, which lets one appender at a time grow it (BeginAppend).
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*catalogEntry
}

// catalogEntry is one registered table: its current version and its
// append lock.
type catalogEntry struct {
	t *Table
	// appendMu serializes appends to the table: an Appender holds it from
	// BeginAppend to Close.
	appendMu sync.Mutex
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*catalogEntry)}
}

// Register adds a table, rejecting duplicate names.
func (c *Catalog) Register(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[t.Name]; dup {
		return fmt.Errorf("storage: table %q already registered", t.Name)
	}
	c.tables[t.Name] = &catalogEntry{t: t}
	return nil
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("storage: unknown table %q", name)
	}
	return e.t, nil
}

// Names returns the registered table names in sorted order.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Morsel is a contiguous row range [Start, End) of a table, the unit of
// work distribution for morsel-driven parallel scans.
type Morsel struct {
	Start, End int
}

// Len returns the number of rows in the morsel.
func (m Morsel) Len() int { return m.End - m.Start }

// DefaultMorselSize is the scan granularity. Chosen so a morsel's working
// set of a few columns stays inside the L2 cache while amortizing
// scheduling overhead, mirroring morsel-driven engines.
const DefaultMorselSize = 64 << 10

// Morsels splits n rows into morsels of the given size (the last may be
// short). size <= 0 uses DefaultMorselSize.
func Morsels(n, size int) []Morsel {
	return MorselsRange(0, n, size)
}

// MorselsRange splits the row range [from, to) into morsels of the given
// size (the last may be short). size <= 0 uses DefaultMorselSize. Used for
// incremental scans over appended rows.
func MorselsRange(from, to, size int) []Morsel {
	if size <= 0 {
		size = DefaultMorselSize
	}
	if from < 0 {
		from = 0
	}
	if to <= from {
		return nil
	}
	out := make([]Morsel, 0, (to-from+size-1)/size)
	for start := from; start < to; start += size {
		end := start + size
		if end > to {
			end = to
		}
		out = append(out, Morsel{Start: start, End: end})
	}
	return out
}

// ErrTableChanged reports a Replace whose table is no longer at the
// version the replacement grew from.
var ErrTableChanged = errors.New("storage: table changed since the replaced version")

// Replace publishes to as the next version of a registered table: a
// compare-and-swap that succeeds only while from is still the current
// version, so a version grown from a stale one can never drop rows
// published in between (ErrTableChanged).
func (c *Catalog) Replace(from, to *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.tables[to.Name]
	if !ok {
		return fmt.Errorf("storage: cannot replace unregistered table %q", to.Name)
	}
	if e.t != from {
		return fmt.Errorf("%w: %q", ErrTableChanged, to.Name)
	}
	e.t = to
	return nil
}
