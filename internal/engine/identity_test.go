package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"laqy/internal/algebra"
	"laqy/internal/sample"
	"laqy/internal/storage"
)

// sampleDigest hashes a stratified sample's full content — schema-ordered
// strata keys, weights and every tuple — so a build is pinned byte for byte.
func sampleDigest(s *sample.Stratified) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(s.NumStrata()))
	put(math.Float64bits(s.TotalWeight()))
	s.ForEach(func(key sample.StratumKey, r *sample.Reservoir) {
		for _, v := range key {
			put(uint64(v))
		}
		put(math.Float64bits(r.Weight()))
		put(uint64(r.Len()))
		for i := 0; i < r.Len(); i++ {
			for _, v := range r.Tuple(i) {
				put(uint64(v))
			}
		}
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestSampleIdentityPins pins stratified builds byte for byte. The digests
// were recorded on the commit before the scan-driver / build-entry collapse
// (one worker loop, one dispatch) and must never change: the same table,
// predicate, seed and worker count give the same sample whichever way the
// build is planned.
func TestSampleIdentityPins(t *testing.T) {
	const k, seed = 64, 20230618
	check := func(name string, s sample.Part, err error, want string) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := sampleDigest(sample.Seal(s, 1)); got != want {
			t.Errorf("%s: digest %s, pinned %s", name, got, want)
		}
	}

	// Single-segment table (plain columns, one open segment).
	one := buildFact(150000, 6, 10)
	oneExprs := ExprsFromNames([]string{"f_group", "f_val"})
	onePred := algebra.NewPredicate().WithRange("f_key", 1000, 140000)
	s, _, err := RunStratifiedExprs(&Query{Fact: one, Filter: onePred}, oneExprs, 1, k, seed, 1)
	check("single-segment", s, err, "a29918367d89b100")

	// Four sealed encoded segments plus the empty open one.
	enc := buildClusteredFact(t, 3*storage.DefaultMorselSize+30000, 9)
	encExprs := ExprsFromNames([]string{"e_flag", "e_val"})
	encPred := algebra.NewPredicate().WithRange("e_date", 20070030, 20070370).WithRange("e_flag", 1, 35)
	for _, c := range []struct {
		name    string
		workers int
		want    string
	}{
		{"4-segment workers=1", 1, "516435244777b62a"},
		{"4-segment workers=4", 4, "516435244777b62a"},
	} {
		s, st, err := RunStratifiedExprs(&Query{Fact: enc, Filter: encPred}, encExprs, 1, k, seed, c.workers)
		check(c.name, s, err, c.want)
		if err == nil && st.Segments != 4 {
			t.Errorf("%s: %d segments planned, want 4", c.name, st.Segments)
		}
	}

	// Three and five sealed segments at one worker per segment: an odd
	// number of parts leaves one unpaired in the segment merge's first
	// round, to wait for the next.
	for _, c := range []struct {
		name     string
		segments int
		want     string
	}{
		{"3-segment workers=1", 3, "57aed03da9f19059"},
		{"5-segment workers=1", 5, "dc73603a45cb5f5d"},
	} {
		fact := buildClusteredFact(t, (c.segments-1)*storage.DefaultMorselSize+30000, 9)
		s, st, err := RunStratifiedExprs(&Query{Fact: fact, Filter: encPred}, encExprs, 1, k, seed, 1)
		check(c.name, s, err, c.want)
		if err == nil && st.Segments != c.segments {
			t.Errorf("%s: %d segments planned, want %d", c.name, st.Segments, c.segments)
		}
	}

	// Δ-build: a ScanFrom that is not segment-aligned, inside the grown
	// open segment — where append maintenance resumes a sample that has
	// absorbed the table's first n rows.
	segRows := storage.DefaultMorselSize
	n := 2*segRows + 5000
	base, err := storage.Resegment(buildFact(n, 5, 10), segRows)
	if err != nil {
		t.Fatal(err)
	}
	grown := growFactTable(t, base, n, segRows+123, 5, segRows)
	s, st, err := RunStratifiedExprs(&Query{Fact: grown, ScanFrom: n}, oneExprs, 1, k, seed, 1)
	check("delta from ScanFrom", s, err, "994ae8b5a095da84")
	if err == nil && (int(s.TotalWeight()) != grown.NumRows()-n || st.Segments != 2) {
		t.Errorf("delta weight %v over %d segments", s.TotalWeight(), st.Segments)
	}

	// The shard-side leaf and the local source produce the same bytes.
	sources := localSegmentSources(&Query{Fact: enc, Filter: encPred}, encExprs, 1, k)
	if len(sources) != 4 {
		t.Fatalf("%d local sources, want 4", len(sources))
	}
	src := sources[2].(*localSegment)
	local, _, err := src.Build(1, seed)
	check("localSegment.Build", local, err, "371bd75ecb04a603")
	from, to := src.ScanRange()
	leaf, _, err := BuildSegmentSample(&Query{Fact: enc, Filter: encPred, ScanFrom: from, ScanTo: to}, encExprs, 1, k, seed, 1)
	check("shard-side leaf", leaf, err, "371bd75ecb04a603")
}
