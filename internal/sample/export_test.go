package sample

// KeysByID returns s's stratum keys in id (insertion) order, for tests
// outside the package that pin stratum ids.
func KeysByID(s *Stratified) []StratumKey {
	out := make([]StratumKey, s.NumStrata())
	for id := range out {
		out[id] = s.index.Key(int32(id))
	}
	return out
}

// ChunkStrata exports chunkStrata to tests outside the package.
var ChunkStrata = chunkStrata
