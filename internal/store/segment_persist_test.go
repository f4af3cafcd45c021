package store

import (
	"bufio"
	"bytes"
	"errors"
	"hash/crc32"
	"reflect"
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

func TestSegmentWatermarksRoundTrip(t *testing.T) {
	s := threeEntryStore(t)
	marks := []SegmentWatermark{
		{ID: 0, Version: 1, Rows: 1 << 20},
		{ID: 1, Version: 3, Rows: 12345},
		{ID: 7, Version: 2, Rows: 0},
	}
	e := s.entries[0]
	s.Update(e, e.Sample, e.Predicate, marks)

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
	got := loaded.entries[0].Segments
	if !reflect.DeepEqual(got, marks) {
		t.Fatalf("watermarks after round-trip = %+v, want %+v", got, marks)
	}
	// Entries saved without watermarks stay without them (nil, not empty
	// slice, so the absence is distinguishable from "zero segments known").
	for i := 1; i < 3; i++ {
		if loaded.entries[i].Segments != nil {
			t.Fatalf("entry %d grew watermarks %+v from nowhere", i, loaded.entries[i].Segments)
		}
	}
}

func TestSegmentWatermarksSurviveSalvage(t *testing.T) {
	s := threeEntryStore(t)
	marks := []SegmentWatermark{{ID: 2, Version: 5, Rows: 777}}
	e := s.entries[2]
	s.Update(e, e.Sample, e.Predicate, marks)

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the middle entry's payload; salvage must keep entries 0 and 2
	// and entry 2's watermarks with them.
	payloads, _ := framePayloads(t, buf.Bytes())
	data := append([]byte(nil), buf.Bytes()...)
	data[payloads[1][0]] ^= 0xFF
	loaded := New(0)
	err := loaded.Salvage(bytes.NewReader(data), 9)
	var corrupt *CorruptStoreError
	if !errors.As(err, &corrupt) || corrupt.Loaded != 2 {
		t.Fatalf("salvage = %v", err)
	}
	if got := loaded.entries[1].Segments; !reflect.DeepEqual(got, marks) {
		t.Fatalf("salvaged watermarks = %+v, want %+v", got, marks)
	}
}

// TestV3PayloadIsCorePlusMarks pins the entry layout: the watermark block
// is the payload's tail, after a core (input, predicate, stratified block)
// that does not depend on the marks.
func TestV3PayloadIsCorePlusMarks(t *testing.T) {
	s := threeEntryStore(t)
	marks := []SegmentWatermark{{ID: 1, Version: 2, Rows: 500}}
	e := s.entries[0]
	var bare, full bytes.Buffer
	writeEntryPayload(&bare, e) // no marks: the core, then a zero count
	s.Update(e, e.Sample, e.Predicate, marks)
	writeEntryPayload(&full, e)
	core := bare.Bytes()[:bare.Len()-1]
	if !bytes.HasPrefix(full.Bytes(), core) {
		t.Fatal("payload with marks does not start with the core")
	}
	tail := full.Bytes()[len(core):]
	got, err := readSegmentMarks(bufio.NewReader(bytes.NewReader(tail)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, marks) {
		t.Fatalf("decoded marks = %+v, want %+v", got, marks)
	}
}
