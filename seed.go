package laqy

// Seed derivation. Every stream of randomness in a DB is derived from the
// single Config.Seed through the fixed constants below, so that two DBs
// opened with the same seed and fed the same query sequence produce
// byte-identical samples (asserted by TestSeedReproducibility). The
// constants only decorrelate the streams from each other; their values are
// arbitrary but frozen — changing any of them silently changes every
// sample a given seed produces.
//
// Sampling identity v2 (scan→sample hot-path overhaul). The seed constants
// are unchanged, but every reservoir is fed through the one admission path,
// per-stratum Algorithm L (sample.Builder.ConsiderColumns), which
// consumes the per-reservoir RNG substream in a different order than the
// per-row Algorithm R of v1 did. For a fixed seed, samples produced by v2
// are therefore NOT byte-identical to samples produced by v1 releases —
// they are drawn from the same uniform-inclusion distribution (asserted
// against the Algorithm R test oracle by TestAlgorithmLChiSquareEquivalence)
// but are different draws. Determinism within a version is unaffected: the
// same binary, seed, and query sequence still reproduce byte-identical
// samples. TestSampleIdentityPins freezes the engine's builds; any change
// to admission that moves those digests is a further identity bump.
const (
	// seedMergeXor decorrelates the lazy sampler's merge randomness
	// (Algorithm 3's reservoir coin flips) from per-query sampling.
	seedMergeXor = 0x1A97
	// seedStoreFileXor decorrelates the RNG substreams assigned to
	// reservoirs restored from a persisted sample store.
	seedStoreFileXor = 0xD15C
	// seedQueryStep spaces per-query seeds along a Weyl sequence
	// (2^64/φ, the golden-ratio increment), so consecutive queries get
	// well-separated seeds even for small Config.Seed values.
	seedQueryStep = 0x9E3779B97F4A7C15
)

// mergeSeed derives the sampler's merge-randomness seed.
func mergeSeed(seed uint64) uint64 { return seed ^ seedMergeXor }

// storeFileSeed derives the seed for reservoirs restored via LoadSamples.
func storeFileSeed(seed uint64) uint64 { return seed ^ seedStoreFileXor }

// nextSeed derives the sampling seed for the next query in sequence.
// Identical query sequences against a fixed Config.Seed therefore
// reproduce identical samples (with Workers: 1; morsel scheduling is
// nondeterministic across workers).
func (db *DB) nextSeed() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.queryCount++
	return db.cfg.Seed + db.queryCount*seedQueryStep
}
