// Package rng provides the low-overhead pseudo-random number generators that
// LAQy inlines into its sampling operators.
//
// The paper (Section 6.2) observes that calls into the standard library's
// random number generator dominate the admission-control hot loop of
// reservoir sampling, and replaces them with an inlined Lehmer
// multiplicative congruential generator whose state fits in registers
// (its reference [31]). This package reproduces that choice with Lehmer64,
// the 128-bit-state variant with a full 64-bit output: admission, merges
// and segment seeds all draw from it.
//
// The generators are deliberately NOT safe for concurrent use; every
// parallel operator instance owns a private stream obtained via Split, which
// derives statistically independent streams from a root seed so that
// experiments stay reproducible under any degree of parallelism.
package rng

import "math/bits"

// Lehmer64 is a 64-bit Lehmer generator: 128-bit state-free multiplicative
// congruential generator x' = a*x mod 2^128 returning the high 64 bits. It
// provides a longer period and a full 64-bit output for index generation
// over large inputs while keeping the same register-resident property.
type Lehmer64 struct {
	hi, lo uint64 // 128-bit state
}

// lehmer64Multiplier is the multiplier recommended by L'Ecuyer for MCGs with
// modulus 2^128 (also used by the widely deployed lehmer64 implementation).
const lehmer64Multiplier = 0xda942042e4dd58b5

// NewLehmer64 returns a generator seeded from seed via SplitMix64 so that
// closely spaced seeds still produce decorrelated streams.
func NewLehmer64(seed uint64) *Lehmer64 {
	l := &Lehmer64{}
	l.Seed(seed)
	return l
}

// Seed resets the generator. The 128-bit state is filled with two SplitMix64
// outputs; state zero (the MCG fixed point) cannot occur because SplitMix64
// output pairs are never both zero for distinct inputs.
func (l *Lehmer64) Seed(seed uint64) {
	l.hi = splitmix64(&seed)
	l.lo = splitmix64(&seed) | 1 // odd low word => state is a unit mod 2^128
}

// Next returns the next 64-bit value.
func (l *Lehmer64) Next() uint64 {
	// (hi,lo) * multiplier mod 2^128
	carryHi, carryLo := bits.Mul64(l.lo, lehmer64Multiplier)
	carryHi += l.hi * lehmer64Multiplier
	l.hi, l.lo = carryHi, carryLo
	return l.hi
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (l *Lehmer64) Float64() float64 {
	return float64(l.Next()>>11) / (1 << 53)
}

// Uint64n returns a uniform value in [0, n) using Lemire's method.
func (l *Lehmer64) Uint64n(n uint64) uint64 {
	if n == 0 {
		// invariant: callers request ranges over nonempty domains
		panic("rng: Uint64n with n == 0")
	}
	hi, lo := bits.Mul64(l.Next(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(l.Next(), n)
		}
	}
	return hi
}

// Intn returns a uniform value in [0, n). n must be > 0.
func (l *Lehmer64) Intn(n int) int {
	if n <= 0 {
		// invariant: callers request ranges over nonempty domains
		panic("rng: Intn with n <= 0")
	}
	return int(l.Uint64n(uint64(n)))
}

// Shuffle pseudo-randomizes the order of n elements using Fisher–Yates.
// swap swaps the elements with indexes i and j.
func (l *Lehmer64) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := int(l.Uint64n(uint64(i + 1)))
		swap(i, j)
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (l *Lehmer64) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	l.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Split derives the i-th independent substream of this generator's seed
// space. The derivation hashes (current state, i) through SplitMix64, so
// substreams are reproducible functions of the root seed and the index,
// regardless of how much the parent has been consumed.
func (l *Lehmer64) Split(i uint64) *Lehmer64 {
	sub := l.Substream(i)
	return &sub
}

// Substream is Split returning the generator by value, for an owner that
// embeds its generator (a sample reservoir) instead of pointing at one.
func (l *Lehmer64) Substream(i uint64) Lehmer64 {
	s := l.hi ^ (l.lo * 0x9E3779B97F4A7C15) ^ (i+1)*0xBF58476D1CE4E5B9
	var sub Lehmer64
	sub.Seed(splitmix64(&s))
	return sub
}

// splitmix64 is the SplitMix64 output function; it advances *s and returns
// the mixed value. Used only for seeding, never in hot loops.
func splitmix64(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
