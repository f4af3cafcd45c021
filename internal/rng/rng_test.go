package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLehmer64Determinism(t *testing.T) {
	a, b := NewLehmer64(123), NewLehmer64(123)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed produced diverging sequences")
		}
	}
	c := NewLehmer64(124)
	same := 0
	a = NewLehmer64(123)
	for i := 0; i < 1000; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds collide on %d of 1000 outputs", same)
	}
}

func TestLehmer64Uint64nProperty(t *testing.T) {
	l := NewLehmer64(99)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return l.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLehmer64Uniformity(t *testing.T) {
	// Chi-square over 64 buckets; loose 3-sigma style bound.
	l := NewLehmer64(2024)
	const buckets, n = 64, 1 << 18
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[l.Intn(buckets)]++
	}
	expected := float64(n) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// df = 63; mean 63, sd = sqrt(2*63) ≈ 11.2. Allow mean + 5 sd.
	if chi2 > 63+5*math.Sqrt(126) {
		t.Fatalf("chi-square = %.1f, suggests non-uniform output", chi2)
	}
}

func TestLehmer64FloatPrecision(t *testing.T) {
	l := NewLehmer64(5)
	sum := 0.0
	const n = 1 << 18
	for i := 0; i < n; i++ {
		sum += l.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of uniform draws = %v, want ~0.5", mean)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	l := NewLehmer64(11)
	for _, n := range []int{0, 1, 2, 10, 1000} {
		p := l.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleActuallyShuffles(t *testing.T) {
	l := NewLehmer64(13)
	p := l.Perm(1000)
	fixed := 0
	for i, v := range p {
		if i == v {
			fixed++
		}
	}
	// Expected number of fixed points of a random permutation is 1.
	if fixed > 20 {
		t.Fatalf("%d fixed points in a 1000-element shuffle", fixed)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := NewLehmer64(77)
	s0, s1 := root.Split(0), root.Split(1)
	same := 0
	for i := 0; i < 1000; i++ {
		if s0.Next() == s1.Next() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("substreams 0 and 1 collide on %d outputs", same)
	}
	// Splitting is a pure function of (state, index).
	r2 := NewLehmer64(77)
	a, b := r2.Split(0), NewLehmer64(77).Split(0)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("Split is not reproducible")
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewLehmer64(1).Intn(0)
}

func BenchmarkLehmer64Next(b *testing.B) {
	l := NewLehmer64(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = l.Next()
	}
	_ = sink
}
