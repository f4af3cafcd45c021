package main

import (
	"fmt"
	"strconv"

	"laqy/internal/ssb"
	"laqy/internal/storage"
)

// oracle answers specs by visiting the generated rows one at a time: no
// morsels, encodings, zone maps, hash-join builds or samples. It shares no
// code with the program beyond the data generator, and is the reference the
// program's exact answers are checked against.
type oracle struct {
	fact map[string][]int64
	rows int
	// dims is indexed like dimOrder.
	dims [4]*oracleDim
}

type oracleDim struct {
	prefix string
	table  *storage.Table
	// rowOf maps the dimension key to its row.
	rowOf map[int64]int
}

// answer is a query result in comparable form: one entry per group, keyed
// by the rendered group values.
type answer map[string][]estimate

type estimate struct {
	value, stdErr float64
	support       int
}

func newOracle(rows int, seed uint64) (*oracle, error) {
	data, err := ssb.Generate(ssb.Config{LineorderRows: rows, Seed: seed})
	if err != nil {
		return nil, err
	}
	o := &oracle{fact: map[string][]int64{}, rows: rows}
	for _, c := range data.Lineorder.Columns() {
		o.fact[c.Name] = c.Ints
	}
	for i, t := range []*storage.Table{data.Date, data.Supplier, data.Part, data.Customer} {
		d := &oracleDim{prefix: dimOrder[i], table: t, rowOf: map[int64]int{}}
		for row, k := range t.Column(dims[d.prefix].dimKey).Ints {
			d.rowOf[k] = row
		}
		o.dims[i] = d
	}
	return o, nil
}

// appendBatch mirrors DB.Append.
func (o *oracle) appendBatch(b batch) {
	for name, vals := range b {
		o.fact[name] = append(o.fact[name], vals...)
	}
	o.rows += len(b["lo_intkey"])
}

// dimRows holds, for the fact row being visited, the joined row of each
// dimension in dimOrder (-1 when the key has no match).
type dimRows *[4]int

func dimIndex(prefix string) int {
	for i, p := range dimOrder {
		if p == prefix {
			return i
		}
	}
	return -1
}

// column resolves a column to accessors for the current fact row.
func (o *oracle) column(name string) (ints func(r int, d dimRows) int64, str func(v int64) string, err error) {
	prefix := prefixOf(name)
	if prefix == "lo_" {
		vals, ok := o.fact[name]
		if !ok {
			return nil, nil, fmt.Errorf("oracle: no fact column %q", name)
		}
		return func(r int, _ dimRows) int64 { return vals[r] }, nil, nil
	}
	di := dimIndex(prefix)
	if di < 0 || o.dims[di].table.Column(name) == nil {
		return nil, nil, fmt.Errorf("oracle: no column %q", name)
	}
	col := o.dims[di].table.Column(name)
	if col.Dict != nil {
		str = col.Dict.Value
	}
	return func(_ int, d dimRows) int64 { return col.Ints[d[di]] }, str, nil
}

type compiledSpec struct {
	joined []int
	conds  []func(r int, d dimRows) bool
	groups []func(r int, d dimRows, buf []byte) []byte
	aggs   []func(r int, d dimRows) float64
	out    answer
}

func (o *oracle) compile(s *spec) (*compiledSpec, error) {
	c := &compiledSpec{out: answer{}}
	if s.table != "" && len(s.joined()) > 0 {
		// byDateTable holds the fact rows in another order and not every
		// column; only an answer that ignores both can be checked here.
		return nil, fmt.Errorf("oracle: a join on %s", s.table)
	}
	for _, p := range s.joined() {
		c.joined = append(c.joined, dimIndex(p))
	}
	for _, cd := range s.conds {
		cd := cd
		get, str, err := o.column(cd.col)
		if err != nil {
			return nil, err
		}
		if cd.kind >= condStrEq && str == nil {
			return nil, fmt.Errorf("oracle: string condition on integer column %q", cd.col)
		}
		switch cd.kind {
		case condIntRange:
			c.conds = append(c.conds, func(r int, d dimRows) bool { v := get(r, d); return v >= cd.lo && v <= cd.hi })
		case condIntIn:
			c.conds = append(c.conds, func(r int, d dimRows) bool {
				v := get(r, d)
				for _, want := range cd.ints {
					if v == want {
						return true
					}
				}
				return false
			})
		case condStrRange:
			c.conds = append(c.conds, func(r int, d dimRows) bool { v := str(get(r, d)); return v >= cd.strs[0] && v <= cd.strs[1] })
		default: // condStrEq, condStrIn
			c.conds = append(c.conds, func(r int, d dimRows) bool {
				v := str(get(r, d))
				for _, want := range cd.strs {
					if v == want {
						return true
					}
				}
				return false
			})
		}
	}
	for _, g := range s.groupBy {
		get, str, err := o.column(g)
		if err != nil {
			return nil, err
		}
		c.groups = append(c.groups, func(r int, d dimRows, buf []byte) []byte {
			if str != nil {
				return append(buf, str(get(r, d))...)
			}
			return strconv.AppendInt(buf, get(r, d), 10)
		})
	}
	for _, a := range s.aggs {
		a := a
		if a.count {
			c.aggs = append(c.aggs, func(int, dimRows) float64 { return 1 })
			continue
		}
		ga, _, err := o.column(a.a)
		if err != nil {
			return nil, err
		}
		if a.op == 0 {
			c.aggs = append(c.aggs, func(r int, d dimRows) float64 { return float64(ga(r, d)) })
			continue
		}
		gb, _, err := o.column(a.b)
		if err != nil {
			return nil, err
		}
		if a.op == '*' {
			c.aggs = append(c.aggs, func(r int, d dimRows) float64 { return float64(ga(r, d) * gb(r, d)) })
		} else {
			c.aggs = append(c.aggs, func(r int, d dimRows) float64 { return float64(ga(r, d) - gb(r, d)) })
		}
	}
	return c, nil
}

// groupSep separates group values in an answer key.
const groupSep = '\x1f'

// eval answers all specs in one pass over the fact rows.
func (o *oracle) eval(specs []*spec) ([]answer, error) {
	compiled := make([]*compiledSpec, len(specs))
	for i, s := range specs {
		c, err := o.compile(s)
		if err != nil {
			return nil, err
		}
		compiled[i] = c
	}
	var factKeys [4][]int64
	for i, dim := range o.dims {
		factKeys[i] = o.fact[dims[dim.prefix].factKey]
	}
	d := dimRows(new([4]int))
	var key []byte
	for r := 0; r < o.rows; r++ {
		for i, dim := range o.dims {
			row, ok := dim.rowOf[factKeys[i][r]]
			if !ok {
				row = -1
			}
			d[i] = row
		}
	spec:
		for _, c := range compiled {
			for _, p := range c.joined {
				if d[p] < 0 {
					continue spec // inner join: no partner, no row
				}
			}
			for _, cond := range c.conds {
				if !cond(r, d) {
					continue spec
				}
			}
			key = key[:0]
			for i, g := range c.groups {
				if i > 0 {
					key = append(key, groupSep)
				}
				key = g(r, d, key)
			}
			acc, ok := c.out[string(key)]
			if !ok {
				acc = make([]estimate, len(c.aggs))
				c.out[string(key)] = acc
			}
			for i, a := range c.aggs {
				acc[i].value += a(r, d)
			}
		}
	}
	out := make([]answer, len(specs))
	for i, c := range compiled {
		out[i] = c.out
	}
	return out, nil
}
