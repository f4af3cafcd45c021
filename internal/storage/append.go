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
// lengths, dictionary codes for string columns — past the current
// version's rows and publishes the grown table (AppendColumns' segment
// routing) through Replace, which it returns. An empty batch publishes
// nothing and returns the current version.
//
// The rows land in the column vectors' spare capacity, so an append costs
// the batch, not the table. Readers of older versions are unaffected: every
// published column is clipped to its version's rows, and appends only write
// past them. When the spare capacity runs out, the vectors are reallocated
// to max(need, rows + rows/8) rows, but never past the end of the segment
// the last new row lands in (segmentRows, normalized as AppendColumns
// does), and right up to that end when it is within rows/4: bounded growth
// copies the table about once per eighth of its size, or once per segment
// when segments are smaller, where doubling would hold up to a table's
// worth of spare memory.
func (a *Appender) Append(batch [][]int64, segmentRows int) (*Table, error) {
	old := a.Table()
	if len(batch) != len(old.columns) {
		return nil, fmt.Errorf("storage: append to %q: %d columns, want %d",
			old.Name, len(batch), len(old.columns))
	}
	n, m := old.rows, 0
	if len(batch) > 0 {
		m = len(batch[0])
	}
	for i, b := range batch {
		if len(b) != m {
			return nil, fmt.Errorf("storage: append to %q: column %q has %d rows, want %d",
				old.Name, old.columns[i].Name, len(b), m)
		}
	}
	if m == 0 {
		return old, nil
	}
	segRows := normalizeSegmentRows(segmentRows)
	vecs := a.e.vecs
	if a.e.spareOf != old || cap(vecs[0]) < n+m {
		segs := appendSegments(old, n+m, segRows)
		limit := segs[len(segs)-1].start + segRows
		capacity := max(n+m, min(n+n/8, limit))
		if limit-n <= n/4 {
			capacity = limit // no sliver growth just short of the segment end
		}
		vecs = make([][]int64, len(old.columns))
		for i, c := range old.columns {
			vecs[i] = make([]int64, n, capacity)
			copy(vecs[i], c.Ints)
		}
	}
	grown := make([]*Column, len(old.columns))
	for i, c := range old.columns {
		vecs[i] = append(vecs[i][:n], batch[i]...)
		grown[i] = &Column{Name: c.Name, Kind: c.Kind, Ints: vecs[i], Dict: c.Dict}
	}
	nt, err := AppendColumns(old, grown, segRows)
	if err != nil {
		return nil, err
	}
	if err := a.c.Replace(old, nt); err != nil {
		return nil, err
	}
	a.e.spareOf, a.e.vecs = nt, vecs
	return nt, nil
}
