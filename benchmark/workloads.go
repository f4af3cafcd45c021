package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"laqy/internal/rng"
	"laqy/internal/ssb"
	"laqy/internal/workload"
)

// workloadInfo holds what the program needs to know of a workload beyond
// its name; why each is in the benchmark is told in BENCHMARK.json and the
// README.
type workloadInfo struct {
	name string
	// lapOps is the length of a lap, the stretch of the op list a
	// time-bounded run repeats and a traced run makes once: about two seconds
	// of timed work at -rows 2000000 on two cores, so that a run has some
	// ten laps to take each op's median over. A lap of explore-lazy is four
	// whole sessions, of exact-ssb six rounds, of dashboard-hot 600 requests
	// from each of two clients.
	lapOps int
	// checkEvery keeps every n-th op's answer (per client) for verification;
	// 0 keeps the first round instead, every exact-ssb shape once.
	checkEvery int
}

var workloads = []workloadInfo{
	{"explore-lazy", 4 * sessionOpsN, 10},
	{"explore-online", 160, 4},
	{"dashboard-hot", 1200, 40},
	{"exact-ssb", 6 * exactShapesN, 0},
	{"ingest-maintain", 50, 5},
}

func findWorkload(name string) (workloadInfo, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadInfo{}, false
}

// op is one timed operation: a query, or on ingest-maintain one refresh
// cycle (append batch, then the fixed panel).
type op struct {
	spec *spec
	sql  string
	// shape numbers the op's kind within the workload: its SQL template and,
	// on dashboard-hot, whether it repeats or narrows a panel range. Latency
	// percentiles are taken per shape and then averaged, because a workload
	// that mixes a fast and a slow shape evenly has its plain median on the
	// gap between the two, where it jumps with the mix.
	shape int
	// width is the number of fact rows a scan-level approximate query's key
	// range covers (0 otherwise): the denominator of effective selectivity.
	width int64
	// clear asks for ClearSamples, off the clock, before the op runs.
	clear bool
	// newSession marks the first op of an explore-lazy session: the store
	// is then as full as the previous session made it, which is where the
	// run samples live_heap_mb.
	newSession bool
	// batch is the index of the row batch a refresh cycle appends; a cycle
	// is the op without a spec.
	batch int
}

// plan is everything a run derives from (-workload, -rows, -seed) before it
// touches the program.
type plan struct {
	info workloadInfo
	rows int
	// lists holds one op list per client (one list when embedded). A lap is
	// a prefix of it; -ops can ask for more, and then the list wraps.
	lists [][]op
	// panel is the query set a workload keeps warm: the 16 dashboard
	// queries, or the five queries of a refresh cycle.
	panel []op
	// batches are the row batches of ingest-maintain.
	batches   []batch
	baseRows  int // rows loaded before timing (ingest loads fewer)
	opsSHA256 string
	opsN      int
}

// batch maps a lineorder column to the values to append.
type batch map[string][]int64

const (
	sessionsN = 12
	// sessionOpsN is the long-running sequence and the short-running one.
	sessionOpsN    = 50 + 3*20
	dashboardReqsN = 1500
	exactRoundsN   = 150
	// exactShapesN is the length of one exact-ssb round (see ssbShapes).
	exactShapesN = 17
	// ingestCyclesN bounds the table's growth, and -ops with it.
	ingestCyclesN = 400
)

// exploreK is the reservoir capacity Q1 and Q2 ask for. A date stratum of Q1
// holds about 830 rows per unit of selectivity at -rows 2000000, and session
// ranges cover 1 % to 40 % of the key domain, so with the default k = 1024 no
// reservoir ever overflowed: every "sample" was a copy of the selection and
// every estimate exact. At 32 a range wider than 4 % overflows most strata,
// and 32 tuples still meet minSupport. Q2's groups hold 57 rows per unit of
// selectivity and stay whole: they are the k >= |selection| case.
const exploreK = 32

func q1(lo, hi int64) *spec {
	return &spec{
		conds:   []cond{intRange("lo_intkey", lo, hi)},
		groupBy: []string{"lo_orderdate"},
		aggs:    []agg{sum("lo_revenue")},
		approx:  true,
		k:       exploreK,
	}
}

func q2(lo, hi int64) *spec {
	return &spec{
		conds: []cond{
			intRange("lo_intkey", lo, hi),
			strEq("p_category", "MFGR#12"), strEq("s_region", "AMERICA"),
		},
		groupBy: []string{"d_year", "p_brand1"},
		aggs:    []agg{sum("lo_revenue")},
		approx:  true,
		k:       exploreK,
	}
}

func queryOp(s *spec, shape int) op {
	o := op{spec: s, sql: s.SQL(), shape: shape}
	if s.approx && len(s.joined()) == 0 {
		o.width = s.keyWidth()
	}
	return o
}

// buildPlan generates the op lists. Randomness comes only from seed.
func buildPlan(info workloadInfo, rows int, seed uint64, clients int) (*plan, error) {
	p := &plan{info: info, rows: rows, baseRows: rows}
	switch info.name {
	case "explore-lazy":
		p.lists = [][]op{exploreOps(rows, seed)}
	case "explore-online":
		p.lists = [][]op{strided(exploreOps(rows, seed))}
		for i := range p.lists[0] {
			p.lists[0][i].clear, p.lists[0][i].newSession = true, false
		}
	case "dashboard-hot":
		p.panel, p.lists = dashboardOps(rows, seed, clients)
	case "exact-ssb":
		g := rng.NewLehmer64(seed ^ 0xE8AC7)
		var ops []op
		for r := 0; r < exactRoundsN; r++ {
			for shape, s := range ssbShapes(g, int64(rows)) {
				ops = append(ops, queryOp(s, shape))
			}
		}
		p.lists = [][]op{ops}
	case "ingest-maintain":
		if err := ingestPlan(p, seed); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", info.name)
	}
	p.hash()
	return p, nil
}

// exploreOps is the paper's evaluation workload: session i is the
// long-running sequence (50 steps) then the short-running one (3x20) over
// lo_intkey, even sessions on Q1 and odd ones on Q2. Each session starts
// from an empty store.
//
// The shape of session i (range widths, the order of extend, narrow and
// repeat) is fixed by the generator seed i+1, as the shapes of exact-ssb
// are fixed; -seed moves each session along the key domain. Widths are
// geometric, so a dozen sessions drawn afresh per seed differ in total work
// by more than any bound this benchmark sets, and runs with different seeds
// could not be compared.
func exploreOps(rows int, seed uint64) []op {
	g := rng.NewLehmer64(seed ^ 0x5E5510)
	var ops []op
	for i := 0; i < sessionsN; i++ {
		cfg := workload.Config{Domain: int64(rows), Seed: uint64(i + 1), SameOrNarrowRate: 0.3}
		steps := append(workload.LongRunning(cfg, 50), workload.ShortRunning(cfg, 3, 20)...) // sessionOpsN of them
		minLo, maxHi := steps[0].Lo, steps[0].Hi
		for _, st := range steps {
			minLo, maxHi = min(minLo, st.Lo), max(maxHi, st.Hi)
		}
		shift := int64(g.Uint64n(uint64(int64(rows)-(maxHi-minLo)))) - minLo
		for j, st := range steps {
			o := queryOp(q1(st.Lo+shift, st.Hi+shift), 0)
			if i%2 == 1 {
				o = queryOp(q2(st.Lo+shift, st.Hi+shift), 1)
			}
			o.clear, o.newSession = j == 0, j == 0
			ops = append(ops, o)
		}
	}
	return ops
}

// strided reorders ops so that every prefix is an even subsample of the
// whole list. explore-online keeps no state between ops, so order does not
// change any op's work; a time-bounded run then sees the same mix of Q1 and
// Q2 and of range widths however far it gets.
func strided(ops []op) []op {
	n := len(ops)
	stride := n*382/1000 + 1
	for gcd(stride, n) != 1 {
		stride++
	}
	out := make([]op, n)
	for j := range out {
		out[j] = ops[j*stride%n]
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// dashboardOps builds a 16-query panel (8 Q1-shape, 8 Q2-shape) and, per
// client, requests that repeat a panel query or narrow its range, so a
// warmed store answers every one without scanning. The panel's range widths
// are fixed (5 % to 12 % of the domain: they set the size of the stored
// samples and so the cost of every hit, and are wide enough that most date
// strata outgrow their reservoirs) and each range lies in its own eighth of
// the domain, because the store merges samples whose ranges overlap and a
// hit then tightens the larger merged sample. -seed places each range
// within its eighth and draws the requests.
func dashboardOps(rows int, seed uint64, clients int) ([]op, [][]op) {
	g := rng.NewLehmer64(seed ^ 0xDA5B)
	type keyRange struct{ lo, hi int64 }
	templates := []func(lo, hi int64) *spec{q1, q2}
	var panel []op
	var ranges []keyRange
	for j := 0; j < 16; j++ {
		width := int64(rows) * int64(5+j%8) / 100
		slot := int64(rows) / 8
		lo := int64(j%8)*slot + int64(g.Uint64n(uint64(slot-width)))
		ranges = append(ranges, keyRange{lo, lo + width - 1})
		panel = append(panel, queryOp(templates[j/8](lo, lo+width-1), j/8))
	}
	lists := make([][]op, clients)
	for c := range lists {
		cg := g.Split(uint64(c))
		for i := 0; i < dashboardReqsN; i++ {
			j := cg.Intn(16)
			r := ranges[j]
			// A repeated range and a narrowed one are shapes of their own: a
			// narrowed hit tightens the stored sample to its range, a repeated
			// one takes it whole. The two cost differently and are drawn
			// evenly, so their common median would sit on the gap between
			// them.
			shape := 2 * (j / 8)
			if cg.Intn(2) == 1 {
				w := r.hi - r.lo + 1
				nw := w/4 + int64(cg.Uint64n(uint64(w-w/4)))
				off := int64(cg.Uint64n(uint64(w - nw + 1)))
				r = keyRange{r.lo + off, r.lo + off + nw - 1}
				shape++
			}
			lists[c] = append(lists[c], queryOp(templates[j/8](r.lo, r.hi), shape))
		}
	}
	return panel, lists
}

var ssbRegions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

// byDateTable is a copy of the fact columns the clustered shapes read, in
// lo_orderdate order, as a warehouse loaded day by day holds them. LoadSSB
// draws lo_orderdate uniformly, so on lineorder itself no morsel's date range
// is narrower than the whole calendar and zone maps never decide anything.
const byDateTable = "lineorder_bydate"

var byDateColumns = []string{"lo_orderdate", "lo_quantity", "lo_discount", "lo_extendedprice", "lo_revenue"}

// ssbShapes returns one round of exact-ssb: the 13 SSB queries of
// ssb_queries_test.go and four join-free shapes, constants drawn from g.
func ssbShapes(g *rng.Lehmer64, rows int64) []*spec {
	year := func() int64 { return ssb.YearMin + int64(g.Intn(ssb.YearMax-ssb.YearMin+1)) }
	ym := func() int64 { return year()*100 + 1 + int64(g.Intn(12)) }
	discount := func() cond { d := int64(g.Intn(9)); return intRange("lo_discount", d, d+2) }
	region := func() string { return ssbRegions[g.Intn(len(ssbRegions))] }
	category := func() string { return fmt.Sprintf("MFGR#%d%d", 1+g.Intn(5), 1+g.Intn(5)) }
	nation := func() int64 { return int64(g.Intn(25)) }
	cities := func() cond { n := nation(); return intIn("s_city", n*10+int64(g.Intn(5)), n*10+5+int64(g.Intn(5))) }
	years := func(span int64) cond {
		y := ssb.YearMin + int64(g.Intn(int(ssb.YearMax-ssb.YearMin+1-span)))
		return intRange("d_year", y, y+span)
	}
	priceDisc := []agg{sumOp("lo_extendedprice", '*', "lo_discount")}
	revenue := []agg{sum("lo_revenue")}
	profit := []agg{sumOp("lo_revenue", '-', "lo_supplycost")}
	quantity := func(width int64) cond {
		q := 1 + int64(g.Intn(int(50-width)))
		return intRange("lo_quantity", q, q+width)
	}

	y := year()
	brandCat, brandLo := category(), 1+g.Intn(33)
	r31 := region()
	n32 := nation()
	r41, r42 := region(), region()
	m := 1 + g.Intn(4)
	keyLo := int64(g.Uint64n(uint64(rows - rows/20)))
	return []*spec{
		// Q1.1-Q1.3: revenue gained by a discount band over a year, a month.
		{conds: []cond{intEq("d_year", year()), discount(), intRange("lo_quantity", 1, 20+int64(g.Intn(10)))}, aggs: priceDisc},
		{conds: []cond{intEq("d_yearmonthnum", ym()), discount(), quantity(9)}, aggs: priceDisc},
		{conds: []cond{intEq("d_yearmonthnum", y*100+1+int64(g.Intn(12))), intEq("d_year", y), discount(), quantity(9)}, aggs: priceDisc},
		// Q2.1-Q2.3: revenue by year and brand for a category, brand range, brand.
		{conds: []cond{strEq("p_category", category()), strEq("s_region", region())},
			groupBy: []string{"d_year", "p_brand1"}, aggs: revenue, orderBy: "ORDER BY d_year, p_brand1"},
		{conds: []cond{strRange("p_brand1", fmt.Sprintf("%s%02d", brandCat, brandLo), fmt.Sprintf("%s%02d", brandCat, brandLo+7)), strEq("s_region", region())},
			groupBy: []string{"d_year", "p_brand1"}, aggs: revenue, orderBy: "ORDER BY d_year, p_brand1"},
		{conds: []cond{strEq("p_brand1", fmt.Sprintf("%s%02d", category(), 1+g.Intn(40))), strEq("s_region", region())},
			groupBy: []string{"d_year", "p_brand1"}, aggs: revenue, orderBy: "ORDER BY d_year, p_brand1"},
		// Q3.1-Q3.4: revenue flows between nations, within a nation, cities.
		{conds: []cond{strEq("c_region", r31), strEq("s_region", r31), years(5)},
			groupBy: []string{"c_nation", "s_nation", "d_year"}, aggs: revenue, orderBy: "ORDER BY d_year ASC, SUM(lo_revenue) DESC"},
		{conds: []cond{intEq("c_nation", n32), intEq("s_nation", n32), years(5)},
			groupBy: []string{"c_nation", "s_nation", "d_year"}, aggs: revenue, orderBy: "ORDER BY d_year ASC, SUM(lo_revenue) DESC"},
		{conds: []cond{cities(), years(5)},
			groupBy: []string{"s_city", "d_year"}, aggs: revenue, orderBy: "ORDER BY d_year ASC, SUM(lo_revenue) DESC"},
		{conds: []cond{cities(), intEq("d_yearmonthnum", ym())},
			groupBy: []string{"s_city", "d_year"}, aggs: revenue, orderBy: "ORDER BY d_year ASC, SUM(lo_revenue) DESC"},
		// Q4.1-Q4.3: profit by year and nation, drilling down.
		{conds: []cond{strEq("c_region", r41), strEq("s_region", r41)},
			groupBy: []string{"d_year", "c_region"}, aggs: profit, orderBy: "ORDER BY d_year"},
		{conds: []cond{strEq("c_region", r42), strEq("s_region", r42), years(1), strIn("p_mfgr", fmt.Sprintf("MFGR#%d", m), fmt.Sprintf("MFGR#%d", m+1))},
			groupBy: []string{"d_year", "s_nation"}, aggs: profit, orderBy: "ORDER BY d_year, s_nation"},
		{conds: []cond{intEq("s_nation", nation()), years(1), strEq("p_category", category())},
			groupBy: []string{"d_year", "s_city"}, aggs: profit, orderBy: "ORDER BY d_year, s_city"},
		// clustered: Q1.1 without its join, on the date-ordered copy of the
		// fact table: zone maps skip the morsels of the other years, and the
		// year's own morsels are partial (discount and quantity are shuffled).
		{table: byDateTable, conds: []cond{intRange("lo_orderdate", y*10000+101, y*10000+1231), discount(), intRange("lo_quantity", 1, 24)}, aggs: priceDisc},
		// clustered-full: a date range alone on the same copy. Morsels inside
		// the range are zone-map-full and fold into the sums with no
		// selection vector: the fused path at its best.
		{table: byDateTable, conds: []cond{intRange("lo_orderdate", y*10000+101, min(y+1, ssb.YearMax)*10000+1231)}, aggs: []agg{sum("lo_revenue"), {count: true}}},
		// shuffled: discount/quantity only on the fact table as loaded; every
		// morsel is partial and nothing folds (the BENCH_PR10 loss case for
		// FOR-encoded columns and for fusion).
		{conds: []cond{discount(), intRange("lo_quantity", 1, 24)}, aggs: priceDisc},
		// exact Q1: the group-by the explore workloads approximate.
		{conds: []cond{intRange("lo_intkey", keyLo, keyLo+rows/20-1)}, groupBy: []string{"lo_orderdate"}, aggs: revenue},
	}
}

// ingestPlan loads a quarter of -rows, then grows the table one batch per
// refresh cycle. The batches are cut from a second generated dataset whose
// lo_intkey is offset past the first, so keys stay unique.
func ingestPlan(p *plan, seed uint64) error {
	p.baseRows = p.rows / 4
	batchRows := p.rows / 800
	if batchRows < 50 {
		batchRows = 50
	}
	extra, err := ssb.Generate(ssb.Config{LineorderRows: ingestCyclesN * batchRows, Seed: seed + 1})
	if err != nil {
		return err
	}
	var ops []op
	for c := 0; c < ingestCyclesN; c++ {
		b := batch{}
		for _, col := range extra.Lineorder.Columns() {
			vals := append([]int64{}, col.Ints[c*batchRows:(c+1)*batchRows]...)
			if col.Name == "lo_intkey" {
				for i := range vals {
					vals[i] += int64(p.baseRows)
				}
			}
			b[col.Name] = vals
		}
		p.batches = append(p.batches, b)
		ops = append(ops, op{batch: c})
	}
	p.lists = [][]op{ops}

	// The panel's predicates are ranges on lo_quantity/lo_discount that new
	// rows fall into: three samplers at the scan (delta-maintained on
	// append), one behind a join (invalidated and rebuilt), one exact. Both
	// columns are uniform, so a range of fixed width selects the same share
	// of the rows wherever -seed puts it.
	g := rng.NewLehmer64(seed ^ 0x1A6E57)
	quantity := func(width int64) cond {
		lo := 1 + int64(g.Intn(int(51-width)))
		return intRange("lo_quantity", lo, lo+width-1)
	}
	discount := func(width int64) cond {
		lo := int64(g.Intn(int(12 - width)))
		return intRange("lo_discount", lo, lo+width-1)
	}
	count := agg{count: true}
	wide := quantity(40)
	for _, s := range []*spec{
		{conds: []cond{wide}, groupBy: []string{"lo_discount"}, aggs: []agg{sum("lo_revenue"), count}, approx: true},
		{conds: []cond{discount(9)}, groupBy: []string{"lo_quantity"}, aggs: []agg{sum("lo_extendedprice")}, approx: true},
		{conds: []cond{quantity(30), discount(7)}, groupBy: []string{"lo_tax"}, aggs: []agg{sum("lo_revenue")}, approx: true},
		{conds: []cond{wide}, groupBy: []string{"d_year"}, aggs: []agg{sum("lo_revenue")}, approx: true},
		{conds: []cond{discount(3), quantity(24)}, aggs: []agg{sumOp("lo_extendedprice", '*', "lo_discount")}},
	} {
		p.panel = append(p.panel, queryOp(s, 0))
	}
	return nil
}

// texts is the set of distinct SQL texts the plan sends.
func (p *plan) texts() map[string]bool {
	out := map[string]bool{}
	for _, o := range p.panel {
		out[o.sql] = true
	}
	for _, list := range p.lists {
		for _, o := range list {
			if o.sql != "" {
				out[o.sql] = true
			}
		}
	}
	return out
}

// hash fixes ops_n and ops_sha256 over everything the program will be given.
func (p *plan) hash() {
	h := sha256.New()
	for _, o := range p.panel {
		h.Write([]byte(o.sql))
		h.Write([]byte{0})
	}
	for _, list := range p.lists {
		p.opsN += len(list)
		for _, o := range list {
			h.Write([]byte(o.sql))
			if o.clear {
				h.Write([]byte{1})
			}
			if o.spec == nil {
				for _, name := range batchColumns {
					_ = binary.Write(h, binary.LittleEndian, p.batches[o.batch][name]) // hash.Hash never fails a write
				}
			}
			h.Write([]byte{0})
		}
	}
	p.opsSHA256 = hex.EncodeToString(h.Sum(nil))
}

// batchColumns is lineorder's schema order.
var batchColumns = []string{
	"lo_intkey", "lo_orderdate", "lo_suppkey", "lo_partkey", "lo_custkey", "lo_quantity",
	"lo_discount", "lo_tax", "lo_extendedprice", "lo_revenue", "lo_supplycost",
}
