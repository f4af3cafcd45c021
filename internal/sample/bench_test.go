package sample

import (
	"testing"
	"time"

	"laqy/internal/rng"
)

// BenchmarkReservoirAdmission compares the Algorithm R oracle against the
// product's admission path, Builder.ConsiderColumns on a keyless sample,
// on a saturated stream (n >> k, the regime the paper's reservoir
// aggregation lives in). Both variants report draws/tuple — Algorithm L's
// headline win is O(k·log(n/k)) RNG draws and admission copies instead of
// O(n) draws.
func BenchmarkReservoirAdmission(b *testing.B) {
	const (
		n     = 1 << 20
		k     = 64
		width = 4
	)
	cols := make([][]int64, width)
	r := rng.NewLehmer64(13)
	for c := range cols {
		cols[c] = make([]int64, n)
		for i := range cols[c] {
			cols[c][i] = int64(r.Intn(1 << 20))
		}
	}

	b.Run("algorithmR-oracle", func(b *testing.B) {
		tuple := make([]int64, width)
		b.SetBytes(n * width * 8)
		b.ReportAllocs()
		var draws int64
		for i := 0; i < b.N; i++ {
			res := NewReservoir(k, width, rng.NewLehmer64(uint64(i)))
			for row := 0; row < n; row++ {
				for c := 0; c < width; c++ {
					tuple[c] = cols[c][row]
				}
				algorithmR(res, tuple)
			}
			draws = res.rngDraws
		}
		b.ReportMetric(float64(draws)/float64(n), "draws/tuple")
	})

	b.Run("considerColumns", func(b *testing.B) {
		b.SetBytes(n * width * 8)
		b.ReportAllocs()
		var draws int64
		for i := 0; i < b.N; i++ {
			s := NewBuilder(make(Schema, width), 0, k, rng.NewLehmer64(uint64(i)))
			s.ConsiderColumns(cols, n)
			if r := s.Stratum(StratumKey{}); r.Len() != k || r.Weight() != n {
				b.Fatalf("admitted Len=%d Weight=%v, want %d and %d", r.Len(), r.Weight(), k, n)
			}
			draws = s.RNGDraws()
		}
		b.ReportMetric(float64(draws)/float64(n), "draws/tuple")
	})
}

// BenchmarkStratifiedAdmission measures a stratified build the way the
// engine runs one: two per-worker partials, each fed its half of the rows
// through ConsiderColumns in 1 024-row batches (stratum resolution per run
// of equal keys, skip counters per stratum), one Algorithm 3 merge, and the
// ordered walk every answer takes. The keys are shuffled, so each row
// resolves its stratum anew. Three shapes of the benchmark's queries:
//   - ingest: one 7-value key (d_year) at k = 1024, the joined query
//     ingest-maintain rebuilds on every refresh;
//   - q1: 2 556 yyyymmdd dates (lo_orderdate) at k = 32;
//   - q2: 7 000 two-column keys (d_year, p_brand1) at k = 32.
func BenchmarkStratifiedAdmission(b *testing.B) {
	const (
		n     = 1 << 20
		batch = 1024
	)
	var years, dates, brands []StratumKey
	for y := int64(1992); y <= 1998; y++ {
		years = append(years, StratumKey{y})
		for brand := int64(1); brand <= 1000; brand++ {
			brands = append(brands, StratumKey{y, brand})
		}
	}
	for d := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC); len(dates) < 2556; d = d.AddDate(0, 0, 1) {
		dates = append(dates, StratumKey{int64(d.Year()*10000 + int(d.Month())*100 + d.Day())})
	}
	for _, shape := range []struct {
		name string
		qcs  int
		k    int
		keys []StratumKey
	}{
		{"ingest", 1, 1024, years},
		{"q1", 1, 32, dates},
		{"q2", 2, 32, brands},
	} {
		width := shape.qcs + 2
		cols := make([][]int64, width)
		for c := range cols {
			cols[c] = make([]int64, n)
		}
		// The first rows visit every key once, so each shape has exactly its
		// stratum count; the rest draw keys at random.
		g := rng.NewLehmer64(29)
		for i := 0; i < n; i++ {
			key := shape.keys[i%len(shape.keys)]
			if i >= len(shape.keys) {
				key = shape.keys[g.Intn(len(shape.keys))]
			}
			for c := 0; c < shape.qcs; c++ {
				cols[c][i] = key[c]
			}
			for c := shape.qcs; c < width; c++ {
				cols[c][i] = int64(g.Intn(1 << 20))
			}
		}
		schema := make(Schema, width)
		for i := range schema {
			schema[i] = string(rune('a' + i))
		}
		feed := func(s *Builder, lo, hi int) {
			view := make([][]int64, width)
			for at := lo; at < hi; at += batch {
				m := min(batch, hi-at)
				for c := range view {
					view[c] = cols[c][at : at+m]
				}
				s.ConsiderColumns(view, m)
			}
		}
		b.Run(shape.name, func(b *testing.B) {
			b.SetBytes(n * int64(width) * 8)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				root := rng.NewLehmer64(uint64(i))
				left := NewBuilder(schema, shape.qcs, shape.k, root.Split(1))
				right := NewBuilder(schema, shape.qcs, shape.k, root.Split(2))
				feed(left, 0, n/2)
				feed(right, n/2, n)
				s, err := MergeStratified(left, right, root.Split(3), 1)
				if err != nil {
					b.Fatal(err)
				}
				strata, weight := 0, 0.0
				s.ForEach(func(_ StratumKey, r *Reservoir) {
					strata++
					weight += r.Weight()
				})
				if want := len(shape.keys); strata != want || s.NumStrata() != want || weight != n || s.TotalWeight() != n {
					b.Fatalf("%d strata of weight %v (total %v), want %d and %d", strata, weight, s.TotalWeight(), want, n)
				}
			}
		})
	}
}
