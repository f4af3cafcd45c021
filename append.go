package laqy

import (
	"fmt"

	"laqy/internal/engine"
	"laqy/internal/obs"
	"laqy/internal/storage"
)

// Append adds the builder's rows to an existing table and incrementally
// maintains the cached samples: every scan-level sample over the table is
// extended with the appended rows (filtered by its own predicate and merged
// per Algorithm 3), so it stays distributed as a fresh sample of the grown
// table. Samples whose input joins this table with dimensions are
// conservatively invalidated — their maintenance would need the join
// shape, which SQL-built samples do not retain.
//
// The builder must provide exactly the table's columns (same names and
// types, any order); string values must already exist in the column's
// dictionary (appends cannot grow dictionaries, as re-coding would
// invalidate stored sample tuples).
func (db *DB) Append(table string, b *TableBuilder) error {
	old, err := db.catalog.Table(table)
	if err != nil {
		return err
	}
	if b.err != nil {
		return b.err
	}
	if len(b.cols) != len(old.Columns()) {
		return fmt.Errorf("laqy: append to %q: %d columns, table has %d",
			table, len(b.cols), len(old.Columns()))
	}
	// Validate and order the new columns to the table's schema. The
	// builder dictionary-encodes string columns against its own dictionary;
	// re-encode codes through the table's dictionary.
	newRows := -1
	ordered := make([]*storage.Column, 0, len(old.Columns()))
	for _, oc := range old.Columns() {
		var nc *storage.Column
		for _, c := range b.cols {
			if c.Name == oc.Name {
				nc = c
				break
			}
		}
		if nc == nil {
			return fmt.Errorf("laqy: append to %q: missing column %q", table, oc.Name)
		}
		if nc.Kind != oc.Kind {
			return fmt.Errorf("laqy: append to %q: column %q is %v, table has %v",
				table, oc.Name, nc.Kind, oc.Kind)
		}
		if newRows >= 0 && nc.Len() != newRows {
			return fmt.Errorf("laqy: append to %q: column %q has %d rows, want %d",
				table, oc.Name, nc.Len(), newRows)
		}
		newRows = nc.Len()
		if oc.Kind == storage.KindString {
			recoded := make([]int64, nc.Len())
			for i := range recoded {
				v := nc.Dict.Value(nc.Ints[i])
				code, ok := oc.Dict.Code(v)
				if !ok {
					return fmt.Errorf("laqy: append to %q: value %q not in dictionary of %q "+
						"(appends cannot introduce new dictionary values)", table, v, oc.Name)
				}
				recoded[i] = code
			}
			ordered = append(ordered, &storage.Column{
				Name: oc.Name, Kind: oc.Kind, Dict: oc.Dict, Ints: recoded,
			})
		} else {
			ordered = append(ordered, nc)
		}
	}

	// Build the grown table (copy-on-append keeps the old version valid for
	// in-flight queries). AppendColumns routes the new rows to the open
	// segment: sealed segments carry their zone-map summaries over to the
	// new table version, so only the open segment is re-summarized.
	grown := make([]*storage.Column, len(ordered))
	for i, oc := range old.Columns() {
		merged := make([]int64, 0, oc.Len()+newRows)
		merged = append(merged, oc.Ints...)
		merged = append(merged, ordered[i].Ints...)
		grown[i] = &storage.Column{Name: oc.Name, Kind: oc.Kind, Dict: oc.Dict, Ints: merged}
	}
	newTable, err := storage.AppendColumns(old, grown, db.cfg.SegmentRows)
	if err != nil {
		return err
	}
	if err := db.catalog.Replace(newTable); err != nil {
		return err
	}
	db.reg.Gauge(obs.MStorageLogicalBytes).Add(tableBytes(newTable, newRows))

	// Maintain scan-level samples over the grown table; invalidate
	// join-level samples involving it.
	db.lazy.InvalidateJoins(table)
	_, err = db.lazy.Maintain(&engine.Query{Fact: newTable}, old.NumRows(),
		db.nextSeed(), db.engineWorkers())
	return err
}
