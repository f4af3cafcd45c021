package shard

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"laqy/internal/engine"
	"laqy/internal/rng"
	"laqy/internal/sample"
)

func testSample(seed uint64, qcsWidth, k int, n int64) *sample.Stratified {
	s := sample.NewBuilder(sample.Schema{"g", "key", "val"}, qcsWidth, k, rng.NewLehmer64(seed))
	cols := [][]int64{make([]int64, n), make([]int64, n), make([]int64, n)}
	for v := range n {
		cols[0][v], cols[1][v], cols[2][v] = v%5, v, v*3
	}
	s.ConsiderColumns(cols, int(n))
	return sample.Seal(s, 1)
}

// testStats sets exactly the eight stats fields a frame carries.
func testStats() engine.Stats {
	return engine.Stats{
		RowsScanned:   12345,
		RowsSelected:  678,
		MorselsPruned: 9,
		MorselsFull:   10,
		Scan:          11 * time.Millisecond,
		Process:       12 * time.Millisecond,
		Merge:         13 * time.Microsecond,
		Wall:          14 * time.Millisecond,
	}
}

func TestFrameRoundtrip(t *testing.T) {
	for _, n := range []int64{0, 1, 100, 5000} {
		orig := testSample(42, 1, 16, n)
		st := testStats()
		frame := EncodeFrame(orig, st)
		dec, got, err := DecodeFrame(frame, 42)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if !reflect.DeepEqual(got, st) {
			t.Fatalf("n=%d: stats changed: %+v vs %+v", n, got, st)
		}
		if dec.NumStrata() != orig.NumStrata() || dec.TotalWeight() != orig.TotalWeight() {
			t.Fatalf("n=%d: sample changed: strata %d→%d weight %v→%v",
				n, orig.NumStrata(), dec.NumStrata(), orig.TotalWeight(), dec.TotalWeight())
		}
		// Encoding is deterministic: same sample + stats → same bytes.
		if !bytes.Equal(frame, EncodeFrame(sample.Seal(dec, 1), got)) {
			t.Fatalf("n=%d: re-encode not byte-identical", n)
		}
	}
}

func TestFrameStatsRoundtripToEngine(t *testing.T) {
	// A build's full stats travel as their eight frame fields; the rest
	// (worker and segment counts, drops) are the coordinator's own and
	// decode as zero.
	full := testStats()
	full.Workers, full.Segments, full.SegmentsBuilt, full.RowsDropped = 4, 3, 2, 99
	full.SegmentDrops = []engine.SegmentDrop{{ID: 1, Rows: 99, Reason: "pressure"}}
	_, got, err := DecodeFrame(EncodeFrame(testSample(1, 1, 4, 10), full), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, testStats()) {
		t.Fatalf("decoded stats = %+v, want the frame fields of %+v", got, full)
	}
	// Negative stats (should never happen, but a hostile peer could try
	// crafting them) clamp to zero on encode rather than wrapping around
	// the uvarint into garbage.
	neg := engine.Stats{RowsScanned: -5, Scan: -time.Second}
	frame := EncodeFrame(testSample(1, 1, 4, 10), neg)
	_, got, err = DecodeFrame(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.RowsScanned != 0 || got.Scan != 0 {
		t.Fatalf("negative stats not clamped: %+v", got)
	}
}

// TestFrameCorruption drives every byzantine-shard failure the decoder
// must refuse: wrong magic, every truncation prefix, bit damage anywhere
// in the frame, trailing bytes, and an oversized length claim.
func TestFrameCorruption(t *testing.T) {
	frame := EncodeFrame(testSample(7, 1, 8, 300), testStats())

	if _, _, err := DecodeFrame(nil, 7); err == nil {
		t.Fatal("empty frame accepted")
	}
	bad := append([]byte(nil), frame...)
	bad[0] ^= 0xFF
	if _, _, err := DecodeFrame(bad, 7); err == nil {
		t.Fatal("bad magic accepted")
	}
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := DecodeFrame(frame[:cut], 7); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(frame))
		}
	}
	for i := len(frameMagic); i < len(frame); i++ {
		flip := append([]byte(nil), frame...)
		flip[i] ^= 0x10
		if _, _, err := DecodeFrame(flip, 7); err == nil {
			// A flip inside the payload must break the CRC; a flip in the
			// length or CRC must break framing. Nothing may pass.
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}
	if _, _, err := DecodeFrame(append(append([]byte(nil), frame...), 0x00), 7); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// A length field claiming more than the cap must be refused before
	// any allocation happens.
	huge := []byte(frameMagic)
	huge = append(huge, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F) // uvarint ≫ maxFramePayload
	if _, _, err := DecodeFrame(huge, 7); err == nil {
		t.Fatal("oversized length claim accepted")
	}
}

// FuzzReservoirDecode hammers the frame decoder with mutated inputs: the
// invariant is "no panic, and any successful decode re-encodes to the
// same bytes" — a decoder that accepts two spellings of one reservoir
// would break the coordinator's byte-identity checks.
func FuzzReservoirDecode(f *testing.F) {
	f.Add(EncodeFrame(testSample(1, 1, 8, 100), testStats()), uint64(1))
	f.Add(EncodeFrame(testSample(2, 2, 4, 0), engine.Stats{}), uint64(2))
	f.Add(EncodeFrame(testSample(3, 0, 1, 5000), testStats()), uint64(3))
	f.Add([]byte(frameMagic), uint64(0))
	f.Add([]byte("LAQYRSV2junk"), uint64(0))
	f.Add([]byte{}, uint64(9))
	corrupt := EncodeFrame(testSample(4, 1, 16, 1000), testStats())
	corrupt[len(corrupt)/2] ^= 0x01
	f.Add(corrupt, uint64(4))
	for _, frame := range nonCanonicalFrames(f) {
		f.Add(frame, uint64(5))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		sam, st, err := DecodeFrame(data, seed)
		if err != nil {
			return
		}
		re := EncodeFrame(sample.Seal(sam, 1), st)
		if !bytes.Equal(re, data) {
			t.Fatalf("decode accepted non-canonical frame: %d bytes in, %d bytes re-encoded", len(data), len(re))
		}
	})
}

// nonCanonicalFrames returns frames with valid lengths and CRCs around
// sample blocks the encoder never writes: testSample(5, 1, 4, 10)'s five
// strata (keys 0…4, two 3-column tuples each) with the first two swapped,
// with the first written twice, and with a NaN weight.
func nonCanonicalFrames(tb testing.TB) [][]byte {
	tb.Helper()
	const strata, rec = 5, 4*8 + 8 + 3 + 2*3*8 // key, weight, three one-byte uvarints, tuples
	frame := EncodeFrame(testSample(5, 1, 4, 10), engine.Stats{})
	payloadLen, n := binary.Uvarint(frame[len(frameMagic):])
	payload := frame[len(frameMagic)+n : len(frameMagic)+n+int(payloadLen)]
	head := len(payload) - strata*rec // stats header and block header
	record := func(i int) []byte { return payload[head+i*rec : head+(i+1)*rec] }
	nan := slices.Clone(record(0))
	binary.LittleEndian.PutUint64(nan[4*8:], math.Float64bits(math.NaN()))
	var out [][]byte
	for _, recs := range [][][]byte{
		{record(1), record(0), record(2), record(3), record(4)},
		{record(0), record(0), record(2), record(3), record(4)},
		{nan, record(1), record(2), record(3), record(4)},
	} {
		p := append(slices.Clone(payload[:head]), slices.Concat(recs...)...)
		f := binary.AppendUvarint([]byte(frameMagic), uint64(len(p)))
		f = binary.LittleEndian.AppendUint32(append(f, p...), crc32.Checksum(p, castagnoli))
		if _, _, err := DecodeFrame(f, 5); err == nil {
			tb.Fatalf("non-canonical frame %d decoded", len(out))
		}
		out = append(out, f)
	}
	return out
}
