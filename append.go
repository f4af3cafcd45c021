package laqy

import (
	"fmt"

	"laqy/internal/obs"
	"laqy/internal/storage"
)

// Append adds the builder's rows to an existing table and incrementally
// maintains the cached samples, at a cost that grows with the batch, not
// the table:
//
//   - the rows are written to the table's open segment, in the spare
//     capacity behind its vectors or in a new allocation holding that
//     segment's rows alone, and to fresh segments past it when it fills;
//     sealed segments are shared with the new version unchanged, so no
//     sealed row is ever copied. The grown table is published as a new
//     version; queries already running keep reading the version they
//     planned against, whose rows never change;
//   - every sample whose input has this table as its fact — scan-level or
//     joined with dimensions — is extended with the appended rows (filtered
//     by its own predicate, joined to the unchanged dimensions, merged per
//     Algorithm 3), so it stays distributed as a fresh sample of the grown
//     input and keeps answering offline;
//   - samples that join this table as a dimension are invalidated: which
//     fact rows join can change, and no Δ of fact rows repairs that.
//
// Appends to one table are serialized, from the write of the rows through
// the maintenance of the samples, so concurrent appends each land exactly
// once in the table and in every sample.
//
// The builder must provide exactly the table's columns (same names and
// types, any order); string values must already exist in the column's
// dictionary (appends cannot grow dictionaries, as re-coding would
// invalidate stored sample tuples).
func (db *DB) Append(table string, b *TableBuilder) error {
	app, err := db.catalog.BeginAppend(table)
	if err != nil {
		return err
	}
	defer app.Close()
	if b.err != nil {
		return b.err
	}
	old := app.Table()
	batch, err := batchColumns(old, b)
	if err != nil {
		return err
	}
	grown, err := app.Append(batch, db.cfg.SegmentRows)
	if err != nil {
		return err
	}
	db.reg.Gauge(obs.MStorageLogicalBytes).Add(tableBytes(grown, grown.NumRows()-old.NumRows()))
	return db.lazy.MaintainAppend(grown, old.NumRows(), db.catalog.Table, db.nextSeed(), db.engineWorkers())
}

// batchColumns validates the builder's columns against the table's schema
// and returns their vectors in schema order. The builder dictionary-encodes
// string columns against its own dictionary; their codes are re-encoded
// through the table's.
func batchColumns(t *storage.Table, b *TableBuilder) ([][]int64, error) {
	schema := t.Schema()
	if len(b.cols) != len(schema) {
		return nil, fmt.Errorf("laqy: append to %q: %d columns, table has %d",
			t.Name, len(b.cols), len(schema))
	}
	newRows := -1
	batch := make([][]int64, 0, len(schema))
	for _, oc := range schema {
		var nc *storage.Column
		for _, c := range b.cols {
			if c.Name == oc.Name {
				nc = c
				break
			}
		}
		if nc == nil {
			return nil, fmt.Errorf("laqy: append to %q: missing column %q", t.Name, oc.Name)
		}
		if nc.Kind != oc.Kind {
			return nil, fmt.Errorf("laqy: append to %q: column %q is %v, table has %v",
				t.Name, oc.Name, nc.Kind, oc.Kind)
		}
		if newRows >= 0 && nc.Len() != newRows {
			return nil, fmt.Errorf("laqy: append to %q: column %q has %d rows, want %d",
				t.Name, oc.Name, nc.Len(), newRows)
		}
		newRows = nc.Len()
		if oc.Kind != storage.KindString {
			batch = append(batch, nc.Ints)
			continue
		}
		recoded := make([]int64, nc.Len())
		for i := range recoded {
			v := nc.Dict.Value(nc.Ints[i])
			code, ok := oc.Dict.Code(v)
			if !ok {
				return nil, fmt.Errorf("laqy: append to %q: value %q not in dictionary of %q "+
					"(appends cannot introduce new dictionary values)", t.Name, v, oc.Name)
			}
			recoded[i] = code
		}
		batch = append(batch, recoded)
	}
	return batch, nil
}
