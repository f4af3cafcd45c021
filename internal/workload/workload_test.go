package workload

import (
	"testing"
)

var cfg = Config{Domain: 1_000_000, Seed: 7}

func TestLongRunningShape(t *testing.T) {
	steps := LongRunning(cfg, 50)
	if len(steps) != 50 {
		t.Fatalf("%d steps", len(steps))
	}
	if steps[0].Kind != Cold {
		t.Fatal("first step must be a cold start")
	}
	for i, s := range steps {
		if s.Lo < 0 || s.Hi >= cfg.Domain || s.Lo > s.Hi {
			t.Fatalf("step %d range [%d,%d] invalid", i, s.Lo, s.Hi)
		}
		if i > 0 && s.Kind == Cold {
			t.Fatalf("step %d: cold start inside a long-running analysis", i)
		}
	}
}

func TestStepKindsConsistent(t *testing.T) {
	steps := LongRunning(cfg, 200)
	for i := 1; i < len(steps); i++ {
		prev, s := steps[i-1], steps[i]
		switch s.Kind {
		case Same:
			if s.Lo != prev.Lo || s.Hi != prev.Hi {
				t.Fatalf("step %d marked Same but range changed", i)
			}
		case Extend:
			if s.Lo > prev.Lo || s.Hi < prev.Hi || (s.Lo == prev.Lo && s.Hi == prev.Hi) {
				t.Fatalf("step %d marked Extend but [%d,%d] does not extend [%d,%d]",
					i, s.Lo, s.Hi, prev.Lo, prev.Hi)
			}
		case Narrow:
			if s.Lo < prev.Lo || s.Hi > prev.Hi || s.Width() > prev.Width() {
				t.Fatalf("step %d marked Narrow but widened", i)
			}
		default:
			t.Fatalf("step %d has kind %v", i, s.Kind)
		}
	}
}

func TestExtendDominatesAtDefaultRate(t *testing.T) {
	// With r = 0.3, roughly 70% of follow-ups should extend.
	steps := LongRunning(Config{Domain: 100_000_000, Seed: 3}, 2000)
	counts := map[StepKind]int{}
	for _, s := range steps[1:] {
		counts[s.Kind]++
	}
	extendFrac := float64(counts[Extend]) / float64(len(steps)-1)
	if extendFrac < 0.6 || extendFrac > 0.8 {
		t.Fatalf("extend fraction = %.2f, want ≈0.7", extendFrac)
	}
	if counts[Same] == 0 || counts[Narrow] == 0 {
		t.Fatalf("kinds missing: %v", counts)
	}
}

func TestShortRunningBatches(t *testing.T) {
	steps := ShortRunning(cfg, 3, 20)
	if len(steps) != 60 {
		t.Fatalf("%d steps", len(steps))
	}
	for _, idx := range []int{0, 20, 40} {
		if steps[idx].Kind != Cold {
			t.Fatalf("step %d should be a cold start, got %v", idx, steps[idx].Kind)
		}
	}
	// Batches explore different focus regions (overwhelmingly likely).
	distinct := map[int64]bool{steps[0].Lo: true, steps[20].Lo: true, steps[40].Lo: true}
	if len(distinct) < 2 {
		t.Fatal("batches did not change focus region")
	}
}

func TestDeterminism(t *testing.T) {
	a := LongRunning(cfg, 50)
	b := LongRunning(cfg, 50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d differs for equal seeds", i)
		}
	}
	c := LongRunning(Config{Domain: cfg.Domain, Seed: 8}, 50)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestRangesGrowOverLongAnalysis(t *testing.T) {
	// Extends outnumber narrows, so the final range is typically much
	// wider than the first — the paper's increasing reuse opportunity.
	steps := LongRunning(Config{Domain: 10_000_000, Seed: 11}, 50)
	if steps[len(steps)-1].Width() <= steps[0].Width() {
		t.Fatalf("range did not grow: first %d, last %d", steps[0].Width(), steps[len(steps)-1].Width())
	}
}

func TestEdgeConfigs(t *testing.T) {
	if got := LongRunning(Config{Domain: 1, Seed: 1}, 10); got != nil {
		t.Fatalf("degenerate domain should return nil, got %v", got)
	}
	if got := LongRunning(cfg, 0); got != nil {
		t.Fatal("zero steps should return nil")
	}
	one := LongRunning(cfg, 1)
	if len(one) != 1 || one[0].Kind != Cold {
		t.Fatalf("single step = %v", one)
	}
}

func TestStepKindString(t *testing.T) {
	for k, want := range map[StepKind]string{Cold: "cold", Extend: "extend", Narrow: "narrow", Same: "same"} {
		if k.String() != want {
			t.Fatalf("%v != %s", k, want)
		}
	}
}

func TestIntervalAccessor(t *testing.T) {
	s := Step{Lo: 5, Hi: 10}
	iv := s.Interval()
	if iv.Lo != 5 || iv.Hi != 10 {
		t.Fatalf("interval = %v", iv)
	}
	if s.Width() != 6 {
		t.Fatalf("width = %d", s.Width())
	}
}

func TestDrifting(t *testing.T) {
	steps := Drifting(Config{Domain: 1_000_000, Seed: 5}, 40, 0.05, 0.25)
	if len(steps) != 40 {
		t.Fatalf("%d steps", len(steps))
	}
	if steps[0].Kind != Cold {
		t.Fatal("first step must be cold")
	}
	width := steps[0].Width()
	for i := 1; i < len(steps); i++ {
		s, prev := steps[i], steps[i-1]
		if s.Lo < 0 || s.Hi >= 1_000_000 || s.Lo > s.Hi {
			t.Fatalf("step %d invalid: %+v", i, s)
		}
		// Consecutive windows overlap by ~75% unless wrapped.
		if s.Lo >= prev.Lo {
			overlap := prev.Hi - s.Lo + 1
			if overlap <= 0 || float64(overlap) < 0.6*float64(width) {
				t.Fatalf("step %d overlap = %d of width %d", i, overlap, width)
			}
		}
	}
	// Determinism.
	again := Drifting(Config{Domain: 1_000_000, Seed: 5}, 40, 0.05, 0.25)
	for i := range steps {
		if steps[i] != again[i] {
			t.Fatal("not deterministic")
		}
	}
	// Defaults and degenerate inputs.
	if got := Drifting(Config{Domain: 1, Seed: 1}, 5, 0, 0); got != nil {
		t.Fatal("degenerate domain should return nil")
	}
	d := Drifting(Config{Domain: 1000, Seed: 1}, 3, 0, 0)
	if len(d) != 3 {
		t.Fatalf("defaulted run = %v", d)
	}
}
