package engine

import (
	"errors"
	"strings"
	"testing"

	"laqy/internal/rng"
	"laqy/internal/sample"
)

// TestMergePanicFailsQueryNotProcess: a panic in the parallel exchange
// (tree merge) step is converted into an error like a morsel worker's
// (TestScanDriverFailures). The real merge
// only panics on unreachable invariants, so the test swaps the merge
// function through its seam.
func TestMergePanicFailsQueryNotProcess(t *testing.T) {
	gen := rng.NewLehmer64(1)
	schema := sample.Schema{"g", "v"}
	healthy := func(seed uint64) *sample.Stratified {
		s := sample.NewStratified(schema, 1, 8, rng.NewLehmer64(seed))
		s.ConsiderColumns([][]int64{{1}, {2}}, 1)
		return s
	}
	orig := mergeStratifiedFn
	defer func() { mergeStratifiedFn = orig }()
	mergeStratifiedFn = func(a, b *sample.Stratified, g *rng.Lehmer64) (*sample.Stratified, error) {
		panic("poisoned merge: deliberate test explosion")
	}
	partials := []*sample.Stratified{healthy(1), healthy(2), healthy(3), healthy(4)}
	_, err := treeMergeStratified(partials, gen)
	if err == nil {
		t.Fatal("a panicking merge must fail the query")
	}
	if !strings.Contains(err.Error(), "sample merge") || !strings.Contains(err.Error(), "poisoned merge") {
		t.Fatalf("error %q does not name the merge step and panic", err)
	}

	// With the real merge restored, the same partials merge cleanly: the
	// panic poisoned one query, not the engine.
	mergeStratifiedFn = orig
	merged, err := treeMergeStratified(
		[]*sample.Stratified{healthy(4), healthy(5), healthy(6)}, gen)
	if err != nil {
		t.Fatalf("merge after a panic-failed merge: %v", err)
	}
	if merged.TotalWeight() != 3 {
		t.Fatalf("post-panic merge weight = %v", merged.TotalWeight())
	}
}

func TestFirstError(t *testing.T) {
	if err := firstError(nil); err != nil {
		t.Fatalf("firstError(nil) = %v", err)
	}
	if err := firstError([]error{nil, nil}); err != nil {
		t.Fatalf("firstError(all nil) = %v", err)
	}
	want := errors.New("second")
	if err := firstError([]error{nil, want, errors.New("third")}); err != want {
		t.Fatalf("firstError = %v, want %v", err, want)
	}
}
