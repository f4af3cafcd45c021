package sample

import "laqy/internal/par"

// chunkTuples is the number of stored tuples (strata × capacity k) one
// chunk of a per-stratum walk covers. On a 2-vCPU VM a helper goroutine
// takes ~60 µs from its go statement to its first instruction when the
// other core is idle, and longer when it is not; merges cost ~15 ns and
// estimates ~8 ns per stored tuple, so a chunk is 130–250 µs of work and a
// helper that starts in time can take every other chunk of a Q1-shaped
// walk (~2.4 k strata of k = 32: five chunks of 512 strata). A Q2-shaped
// hit (~280 strata of k = 32) is one chunk and runs inline.
const chunkTuples = 1 << 14

// chunkStrata is the number of strata per chunk of a walk over strata of
// capacity k.
func chunkStrata(k int) int {
	return max(chunkTuples/max(k, 1), 1)
}

// chunkBounds is the index range [lo, hi) of chunk c of a walk over
// [0, n) in chunks of size consecutive indices.
func chunkBounds(c, size, n int) (lo, hi int) {
	return c * size, min(c*size+size, n)
}

// forChunks walks [0, n) in chunks of size consecutive indices, one
// par.Claim item per chunk: worker is called once per participant, on its
// own goroutine before its first chunk, and returns that participant's
// body, which runs chunk c over chunkBounds(c, size, n) and returns nil.
// After a panic in any chunk, chunks claimed later end without running;
// once every claimed chunk has ended, the panic is raised again on the
// caller's goroutine as a *par.Panic, carrying the stack of the goroutine
// that panicked — so a caller that recovers (the engine's exchange merge
// turns a panic into the query's error) recovers helper panics too.
func forChunks(n, size, workers int, worker func(p int) func(c int) error) {
	if _, err := par.Claim((n+size-1)/size, workers, worker); err != nil {
		// invariant: only a chunk body's panic fails the walk, and only a
		// bug in this repository can cause one.
		panic(err)
	}
}
