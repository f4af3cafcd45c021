package store

import (
	"bytes"
	"testing"

	"laqy/internal/sample"
)

// TestEncodeStratifiedRoundtrip is the property test for the exported
// stratified-block codec (the shard wire path reuses it): across seeds,
// widths, capacities, and sizes, decode(encode(s)) preserves every
// stratum and a re-encode is byte-identical.
func TestEncodeStratifiedRoundtrip(t *testing.T) {
	cases := []struct {
		seed     uint64
		qcsWidth int
		k        int
		n        int64
	}{
		{1, 1, 10, 100},
		{2, 1, 10, 0},    // empty sample: no strata
		{3, 2, 4, 1000},  // overflowing reservoirs (n >> k)
		{4, 0, 8, 50},    // zero-width QCS: one stratum
		{5, 3, 1, 5000},  // k=1 extreme
		{99, 1, 64, 777}, // odd size
	}
	for _, tc := range cases {
		schema := sample.Schema{"g", "key", "val"}
		if tc.qcsWidth > len(schema) {
			t.Fatalf("bad case: qcsWidth %d", tc.qcsWidth)
		}
		orig := makeSample(tc.seed, schema, tc.qcsWidth, tc.k, tc.n)
		enc := EncodeStratified(orig)
		dec, err := DecodeStratified(enc, tc.seed)
		if err != nil {
			t.Fatalf("case %+v: decode: %v", tc, err)
		}
		if dec.QCSWidth() != orig.QCSWidth() || dec.K() != orig.K() {
			t.Fatalf("case %+v: params changed: qcs %d→%d k %d→%d",
				tc, orig.QCSWidth(), dec.QCSWidth(), orig.K(), dec.K())
		}
		if dec.NumStrata() != orig.NumStrata() || dec.TotalWeight() != orig.TotalWeight() {
			t.Fatalf("case %+v: strata %d→%d weight %v→%v",
				tc, orig.NumStrata(), dec.NumStrata(), orig.TotalWeight(), dec.TotalWeight())
		}
		for _, key := range orig.Keys() {
			or, dr := orig.Stratum(key), dec.Stratum(key)
			if dr == nil || or.Len() != dr.Len() || or.Weight() != dr.Weight() {
				t.Fatalf("case %+v: stratum %v differs", tc, key)
			}
		}
		// Determinism: re-encoding the decoded sample reproduces the bytes.
		if !bytes.Equal(enc, EncodeStratified(sample.Seal(dec, 1))) {
			t.Fatalf("case %+v: re-encode not byte-identical", tc)
		}
	}
}

// TestDecodeStratifiedCorruption feeds the decoder every truncation
// prefix and a trailing-byte extension: each must error cleanly (never
// panic, never succeed on a damaged block).
func TestDecodeStratifiedCorruption(t *testing.T) {
	orig := makeSample(7, sample.Schema{"g", "key", "val"}, 1, 8, 500)
	enc := EncodeStratified(orig)

	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeStratified(enc[:cut], 7); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(enc))
		}
	}
	if _, err := DecodeStratified(append(append([]byte(nil), enc...), 0xFF), 7); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := DecodeStratified(nil, 7); err == nil {
		t.Fatal("empty input accepted")
	}
}
