// Package workload generates the simulated exploratory query sequences of
// the paper's evaluation (Section 7, "Workload"): a user analyses a value
// range on a key column, progressively extending it, narrowing it, or
// re-running the same interval at rate r, and occasionally changing the
// focus of analysis entirely.
//
// Two sequence shapes are produced:
//
//   - LongRunning: one 50-query analysis over a single focus region
//     (Figure 9a) — high reuse opportunity;
//   - ShortRunning: 60 queries in 3×20 batches, each batch a fresh focus
//     region (Figure 9b) — moderate reuse with cold starts at queries 0,
//     20, and 40.
//
// As in the paper, the generator is seeded for repeatable experiments: the
// starting point is uniform in the key domain, per-query range widths are
// geometrically distributed around it, and r = 0.3 is the rate of same-or-
// narrower ranges.
package workload

import (
	"fmt"
	"math"

	"laqy/internal/algebra"
	"laqy/internal/rng"
)

// StepKind classifies how a query's range relates to its predecessor.
type StepKind int

const (
	// Cold is the first query of an analysis (no predecessor).
	Cold StepKind = iota
	// Extend widens the previous range.
	Extend
	// Narrow shrinks the previous range.
	Narrow
	// Same repeats the previous range.
	Same
)

// String implements fmt.Stringer.
func (k StepKind) String() string {
	switch k {
	case Cold:
		return "cold"
	case Extend:
		return "extend"
	case Narrow:
		return "narrow"
	case Same:
		return "same"
	default:
		return fmt.Sprintf("step(%d)", int(k))
	}
}

// Step is one query of an exploratory sequence: a closed range [Lo, Hi] on
// the exploration key column.
type Step struct {
	Lo, Hi int64
	Kind   StepKind
}

// Interval returns the step's range as an algebra interval.
func (s Step) Interval() algebra.Interval { return algebra.Interval{Lo: s.Lo, Hi: s.Hi} }

// Width returns the number of keys the range covers.
func (s Step) Width() int64 { return s.Hi - s.Lo + 1 }

// Config parameterizes sequence generation.
type Config struct {
	// Domain is the key domain [0, Domain): lo_intkey ranges over the fact
	// table's row count.
	Domain int64
	// Seed drives all randomness.
	Seed uint64
	// SameOrNarrowRate is the paper's r: the probability that a follow-up
	// query uses the same or a narrower range instead of extending.
	// Defaults to 0.3 when zero.
	SameOrNarrowRate float64
	// MeanWidthFraction is the expected initial range width as a fraction
	// of the domain (geometrically distributed). Defaults to 0.02.
	MeanWidthFraction float64
}

func (c Config) withDefaults() Config {
	if c.SameOrNarrowRate == 0 {
		c.SameOrNarrowRate = 0.3
	}
	if c.MeanWidthFraction == 0 {
		c.MeanWidthFraction = 0.02
	}
	return c
}

// LongRunning generates an n-query single-focus analysis sequence
// (the paper uses n = 50).
func LongRunning(cfg Config, n int) []Step {
	cfg = cfg.withDefaults()
	gen := rng.NewLehmer64(cfg.Seed)
	return analysis(cfg, gen, n)
}

// ShortRunning generates batches×perBatch queries where each batch is an
// independent analysis over a fresh focus region (the paper uses 3×20).
func ShortRunning(cfg Config, batches, perBatch int) []Step {
	cfg = cfg.withDefaults()
	gen := rng.NewLehmer64(cfg.Seed)
	var out []Step
	for b := 0; b < batches; b++ {
		out = append(out, analysis(cfg, gen.Split(uint64(b)), perBatch)...)
	}
	return out
}

// analysis generates one exploration: a cold start followed by
// extend/narrow/same steps.
func analysis(cfg Config, gen *rng.Lehmer64, n int) []Step {
	if n <= 0 || cfg.Domain <= 1 {
		return nil
	}
	steps := make([]Step, 0, n)

	meanWidth := cfg.MeanWidthFraction * float64(cfg.Domain)
	// Starting point uniform in the domain; initial width geometric.
	start := int64(gen.Uint64n(uint64(cfg.Domain)))
	width := geometric(gen, meanWidth)
	lo, hi := clamp(cfg.Domain, start, start+width-1)
	steps = append(steps, Step{Lo: lo, Hi: hi, Kind: Cold})

	for i := 1; i < n; i++ {
		prev := steps[i-1]
		var next Step
		if gen.Float64() < cfg.SameOrNarrowRate {
			if gen.Float64() < 0.5 {
				next = Step{Lo: prev.Lo, Hi: prev.Hi, Kind: Same}
			} else {
				next = narrow(gen, prev)
			}
		} else {
			next = extend(gen, cfg.Domain, prev, meanWidth)
		}
		steps = append(steps, next)
	}
	return steps
}

// extend widens the previous range by a geometric amount on a random side
// (or both when the coin lands twice).
func extend(gen *rng.Lehmer64, domain int64, prev Step, meanWidth float64) Step {
	delta := geometric(gen, meanWidth/2)
	lo, hi := prev.Lo, prev.Hi
	switch gen.Intn(3) {
	case 0:
		lo -= delta
	case 1:
		hi += delta
	default:
		lo -= delta / 2
		hi += (delta + 1) / 2
	}
	lo, hi = clamp(domain, lo, hi)
	// At domain boundaries the clamp can make extension a no-op; keep the
	// kind honest in that case.
	kind := Extend
	if lo == prev.Lo && hi == prev.Hi {
		kind = Same
	}
	return Step{Lo: lo, Hi: hi, Kind: kind}
}

// narrow shrinks the previous range to a random subrange (at least one
// key wide).
func narrow(gen *rng.Lehmer64, prev Step) Step {
	w := prev.Width()
	if w <= 1 {
		return Step{Lo: prev.Lo, Hi: prev.Hi, Kind: Same}
	}
	newW := 1 + int64(gen.Uint64n(uint64(w)))
	offset := int64(gen.Uint64n(uint64(w - newW + 1)))
	return Step{Lo: prev.Lo + offset, Hi: prev.Lo + offset + newW - 1, Kind: Narrow}
}

// geometric draws a geometric random variable with the given mean
// (minimum 1), the paper's distribution for range widths.
func geometric(gen *rng.Lehmer64, mean float64) int64 {
	if mean < 1 {
		mean = 1
	}
	p := 1 / mean
	// Inverse-CDF sampling: ceil(ln U / ln(1-p)).
	u := gen.Float64()
	if u == 0 {
		u = 0.5
	}
	v := int64(1)
	if p < 1 {
		v = int64(math.Log(u) / math.Log(1-p))
		if v < 1 {
			v = 1
		}
	}
	return v
}

// clamp restricts [lo, hi] to [0, domain) preserving at least width 1.
func clamp(domain, lo, hi int64) (int64, int64) {
	if lo < 0 {
		lo = 0
	}
	if hi >= domain {
		hi = domain - 1
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Drifting generates a steadily drifting analysis: a fixed-width window of
// interest slides across the key domain by stepFraction of its width per
// query — the query-workload analogue of gradual concept drift the paper
// contrasts itself with in Section 8. Each query overlaps its predecessor
// by (1 - stepFraction), so a lazy sampler pays a bounded Δ per query
// while a full-match cache almost never hits.
func Drifting(cfg Config, n int, widthFraction, stepFraction float64) []Step {
	cfg = cfg.withDefaults()
	if n <= 0 || cfg.Domain <= 1 {
		return nil
	}
	if widthFraction <= 0 {
		widthFraction = 0.05
	}
	if stepFraction <= 0 {
		stepFraction = 0.25
	}
	width := int64(widthFraction * float64(cfg.Domain))
	if width < 1 {
		width = 1
	}
	step := int64(stepFraction * float64(width))
	if step < 1 {
		step = 1
	}
	gen := rng.NewLehmer64(cfg.Seed)
	lo := int64(gen.Uint64n(uint64(cfg.Domain)))
	out := make([]Step, 0, n)
	for i := 0; i < n; i++ {
		hi := lo + width - 1
		cLo, cHi := clamp(cfg.Domain, lo, hi)
		kind := Extend
		if i == 0 {
			kind = Cold
		}
		out = append(out, Step{Lo: cLo, Hi: cHi, Kind: kind})
		lo += step
		if lo+width-1 >= cfg.Domain {
			lo = 0 // wrap around: the analyst restarts at the domain start
		}
	}
	return out
}
