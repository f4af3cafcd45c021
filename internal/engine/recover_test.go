package engine

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"laqy/internal/rng"
	"laqy/internal/sample"
)

// TestMergePanicFailsQueryNotProcess: a panic in the exchange's merge
// (mergeParts) is converted into an error like a morsel worker's
// (TestScanDriverFailures). The real merge
// only panics on unreachable invariants, so the test swaps the merge
// function through its seam.
func TestMergePanicFailsQueryNotProcess(t *testing.T) {
	gen := rng.NewLehmer64(1)
	schema := sample.Schema{"g", "v"}
	healthy := func(seed uint64) sample.Part {
		s := sample.NewBuilder(schema, 1, 8, rng.NewLehmer64(seed))
		s.ConsiderColumns([][]int64{{1}, {2}}, 1)
		return s
	}
	orig := mergeNFn
	defer func() { mergeNFn = orig }()
	mergeNFn = func(parts []sample.Part, g *rng.Lehmer64, workers int) (sample.Part, error) {
		panic("poisoned merge: deliberate test explosion")
	}
	partials := []sample.Part{healthy(1), healthy(2), healthy(3), healthy(4)}
	_, err := mergeParts(partials, gen, 2)
	if err == nil {
		t.Fatal("a panicking merge must fail the query")
	}
	if !strings.Contains(err.Error(), "sample merge") || !strings.Contains(err.Error(), "poisoned merge") {
		t.Fatalf("error %q does not name the merge step and panic", err)
	}

	// With the real merge restored, the same partials merge cleanly: the
	// panic poisoned one query, not the engine.
	mergeNFn = orig
	merged, err := mergeParts(
		[]sample.Part{healthy(4), healthy(5), healthy(6)}, gen, 2)
	if err != nil {
		t.Fatalf("merge after a panic-failed merge: %v", err)
	}
	if w := sample.Seal(merged, 1).TotalWeight(); w != 3 {
		t.Fatalf("post-panic merge weight = %v", w)
	}
}

// TestMergeChunkPanicFailsQueryNotProcess: a panic in a chunk that a
// merge's helper goroutine walks (sample.Stratified.Walk, whose driver
// MergeStratified's parallel strata share) reaches mergeParts' recover
// and fails the merge with an error naming it, instead of killing the
// process from the helper goroutine.
func TestMergeChunkPanicFailsQueryNotProcess(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	goid := func() string {
		buf := make([]byte, 64)
		return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
	}
	// k = 1<<14 makes every stratum a chunk of its own.
	partial := func(seed uint64) sample.Part {
		s := sample.NewBuilder(sample.Schema{"g", "v"}, 1, 1<<14, rng.NewLehmer64(seed))
		s.ConsiderColumns([][]int64{{1, 2, 3, 4, 5, 6}, {1, 2, 3, 4, 5, 6}}, 6)
		return s
	}
	orig := mergeNFn
	defer func() { mergeNFn = orig }()
	mergeNFn = func(parts []sample.Part, g *rng.Lehmer64, workers int) (sample.Part, error) {
		caller := goid()
		helperRan := make(chan struct{})
		var once sync.Once
		sample.Seal(parts[0], 1).Walk(workers, func() func(lo, hi int) {
			onHelper := goid() != caller
			return func(lo, hi int) {
				if onHelper {
					once.Do(func() { close(helperRan) })
					panic("poisoned stratum chunk")
				}
				select {
				case <-helperRan:
				case <-time.After(10 * time.Second):
				}
			}
		})
		return orig(parts, g, workers)
	}
	_, err := mergeParts([]sample.Part{partial(1), partial(2)}, rng.NewLehmer64(1), 2)
	if err == nil {
		t.Fatal("a panic in a merge helper's chunk must fail the merge")
	}
	if !strings.Contains(err.Error(), "sample merge") || !strings.Contains(err.Error(), "poisoned stratum chunk") {
		t.Fatalf("error %q does not name the merge step and the helper's panic", err)
	}
}
