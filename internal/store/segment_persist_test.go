package store

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math"
	"slices"
	"testing"
)

// frameStore wraps entry payloads in the store container under the given
// magic: per-entry length prefix and CRC, then the checksummed footer.
func frameStore(magic string, payloads ...[]byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(magic)
	writeUvarint(&buf, uint64(len(payloads)))
	digest := crc32.New(castagnoli)
	for _, payload := range payloads {
		writeUvarint(&buf, uint64(len(payload)))
		buf.Write(payload)
		writeUint32(&buf, crc32.Checksum(payload, castagnoli))
		digest.Write(payload)
	}
	var footer bytes.Buffer
	footer.WriteString(footerMagic)
	writeUvarint(&footer, uint64(len(payloads)))
	writeUint32(&footer, digest.Sum32())
	buf.Write(footer.Bytes())
	writeUint32(&buf, crc32.Checksum(footer.Bytes(), castagnoli))
	return buf.Bytes()
}

// TestSegmentWatermarksRoundTrip: an entry's absorbed rows — one
// watermark over its fact table — survive Save and Load, above
// math.MaxInt32 rows too, and an entry that absorbed none loads with none.
func TestSegmentWatermarksRoundTrip(t *testing.T) {
	s := threeEntryStore(t)
	const absorbed = math.MaxInt32 + 12345
	e := s.entries[0]
	s.Update(e, e.Sample, e.Predicate, absorbed)

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := New(0)
	if err := loaded.Load(bytes.NewReader(buf.Bytes()), 9); err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 3 {
		t.Fatalf("loaded %d entries, want 3", loaded.Len())
	}
	if got := loaded.entries[0].Absorbed; got != absorbed {
		t.Fatalf("absorbed rows after round-trip = %d, want %d", got, absorbed)
	}
	for i := 1; i < 3; i++ {
		if got := loaded.entries[i].Absorbed; got != 0 {
			t.Fatalf("entry %d absorbed %d rows from nowhere", i, got)
		}
	}
}

func TestSegmentWatermarksSurviveSalvage(t *testing.T) {
	s := threeEntryStore(t)
	e := s.entries[2]
	s.Update(e, e.Sample, e.Predicate, 777)

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the middle entry's payload; salvage must keep entries 0 and 2
	// and entry 2's absorbed rows with them.
	payloads, _ := framePayloads(t, buf.Bytes())
	data := append([]byte(nil), buf.Bytes()...)
	data[payloads[1][0]] ^= 0xFF
	loaded := New(0)
	err := loaded.Salvage(bytes.NewReader(data), 9)
	var corrupt *CorruptStoreError
	if !errors.As(err, &corrupt) || corrupt.Loaded != 2 {
		t.Fatalf("salvage = %v", err)
	}
	if got := loaded.entries[1].Absorbed; got != 777 {
		t.Fatalf("salvaged absorbed rows = %d, want 777", got)
	}
}

// marksBlock encodes a marks block of the given {id, version, rows} marks.
func marksBlock(marks ...[3]uint64) []byte {
	var b bytes.Buffer
	writeUvarint(&b, uint64(len(marks)))
	for _, m := range marks {
		for _, v := range m {
			writeUvarint(&b, v)
		}
	}
	return b.Bytes()
}

// TestV3PayloadIsCorePlusMarks pins the entry layout: the marks block is
// the payload's tail, after a core (input, predicate, stratified block)
// that does not depend on it. The writer's block is one mark {0, 0, rows}
// (none for no rows), and a block of a mark per segment, as files written
// before the one mark hold, reads as the sum of their rows.
func TestV3PayloadIsCorePlusMarks(t *testing.T) {
	s := threeEntryStore(t)
	e := s.entries[0]
	var bare, full bytes.Buffer
	writeEntryPayload(&bare, e) // no rows absorbed: the core, then a zero count
	s.Update(e, e.Sample, e.Predicate, 500)
	writeEntryPayload(&full, e)
	core := bare.Bytes()[:bare.Len()-1]
	if !bytes.Equal(bare.Bytes()[len(core):], marksBlock()) {
		t.Fatal("payload without absorbed rows does not end in an empty marks block")
	}
	if !bytes.Equal(full.Bytes(), append(slices.Clip(core), marksBlock([3]uint64{0, 0, 500})...)) {
		t.Fatal("payload is not the core and one mark of 500 rows")
	}

	perSegment := append(slices.Clip(core), marksBlock([3]uint64{0, 1, 65536}, [3]uint64{1, 1, 65536}, [3]uint64{2, 3, 5000})...)
	loaded := New(0)
	if err := loaded.Load(bytes.NewReader(frameStore(persistMagicV3, perSegment)), 9); err != nil {
		t.Fatal(err)
	}
	if got := loaded.entries[0].Absorbed; got != 2*65536+5000 {
		t.Fatalf("per-segment marks load as %d absorbed rows, want %d", got, 2*65536+5000)
	}

	overflow := append(slices.Clip(core), marksBlock([3]uint64{0, 0, math.MaxInt}, [3]uint64{1, 0, 1})...)
	if err := New(0).Load(bytes.NewReader(frameStore(persistMagicV3, overflow)), 9); err == nil {
		t.Fatal("marks summing past math.MaxInt rows loaded")
	}
}
