package sample

import (
	"testing"

	"laqy/internal/rng"
)

// BenchmarkReservoirAdmission compares the Algorithm R oracle against the
// product's admission path, Stratified.ConsiderColumns on a keyless sample,
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
			s := NewStratified(make(Schema, width), 0, k, rng.NewLehmer64(uint64(i)))
			s.ConsiderColumns(cols, n)
			if r := s.Stratum(StratumKey{}); r.Len() != k || r.Weight() != n {
				b.Fatalf("admitted Len=%d Weight=%v, want %d and %d", r.Len(), r.Weight(), k, n)
			}
			draws = s.RNGDraws()
		}
		b.ReportMetric(float64(draws)/float64(n), "draws/tuple")
	})
}

// BenchmarkStratifiedAdmission measures the stratified batch sink: per-row
// stratum routing with per-stratum skip counters (no RNG, no copy for rows
// inside a stratum's skip run).
func BenchmarkStratifiedAdmission(b *testing.B) {
	const (
		n       = 1 << 20
		k       = 64
		width   = 3
		qcs     = 1
		nGroups = 16
	)
	cols := make([][]int64, width)
	r := rng.NewLehmer64(29)
	for c := range cols {
		cols[c] = make([]int64, n)
		for i := range cols[c] {
			if c == 0 {
				cols[c][i] = int64(r.Intn(nGroups))
			} else {
				cols[c][i] = int64(r.Intn(1 << 20))
			}
		}
	}
	schema := make(Schema, width)
	for i := range schema {
		schema[i] = string(rune('a' + i))
	}
	b.SetBytes(n * width * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewStratified(schema, qcs, k, rng.NewLehmer64(uint64(i)))
		s.ConsiderColumns(cols, n)
		if s.NumStrata() != nGroups || s.TotalWeight() != n {
			b.Fatalf("%d strata of weight %v, want %d and %d", s.NumStrata(), s.TotalWeight(), nGroups, n)
		}
	}
}
