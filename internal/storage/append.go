package storage

import "fmt"

// Appender is the exclusive right to grow one registered table, held from
// Catalog.BeginAppend to Close. Appends to one table are serialized: each
// starts from the version the previous one published, so none can drop
// another's rows, and a caller can keep the lock across work that must see
// each batch exactly once (the sample store's Δ-maintenance).
type Appender struct {
	c *Catalog
	e *catalogEntry
}

// BeginAppend waits for the named table's append lock and returns the
// Appender holding it. Queries are not blocked: they keep reading the
// version current when they planned.
func (c *Catalog) BeginAppend(name string) (*Appender, error) {
	c.mu.RLock()
	e, ok := c.tables[name]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("storage: unknown table %q", name)
	}
	e.appendMu.Lock()
	return &Appender{c: c, e: e}, nil
}

// Close releases the append lock.
func (a *Appender) Close() { a.e.appendMu.Unlock() }

// Table returns the table's current version, which only this Appender can
// change until Close.
func (a *Appender) Table() *Table {
	a.c.mu.RLock()
	defer a.c.mu.RUnlock()
	return a.e.t
}

// Append writes batch — one vector per column in schema order, of equal
// lengths, dictionary codes for string columns — after the current
// version's rows and publishes the grown table (AppendColumns) through
// Replace, which it returns. An empty batch publishes nothing and returns
// the current version.
//
// An append costs the batch, not the table: sealed segments are shared
// with the new version unchanged, and the rows land in the open segment's
// spare capacity, or in a new allocation for the open segment's rows alone
// when it has none left (AppendColumns). Readers of older versions are
// unaffected: every published vector is clipped to its version's rows, and
// appends only write past them.
func (a *Appender) Append(batch [][]int64, segmentRows int) (*Table, error) {
	old := a.Table()
	nt, err := AppendColumns(old, batch, segmentRows)
	if err != nil || nt == old {
		return nt, err
	}
	if err := a.c.Replace(old, nt); err != nil {
		return nil, err
	}
	return nt, nil
}
