package store

import (
	"bufio"
	"bytes"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"laqy/internal/algebra"
)

// saveV2 renders a store in the read-only v2 format: same framing and
// footer as v3, but entry payloads stop at the sample block (no segment
// watermark trailer). Kept in the tests so the library only ever writes
// the current format.
func saveV2(s *Store) []byte {
	payloads := make([][]byte, len(s.entries))
	for i, e := range s.entries {
		var payload bytes.Buffer
		writeEntryCore(&payload, e)
		payloads[i] = payload.Bytes()
	}
	return frameStore(persistMagicV2, payloads...)
}

// frameStore wraps entry payloads in the v2/v3 container under the given
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

func TestLoadV2ReadOnlyCompat(t *testing.T) {
	orig := threeEntryStore(t)
	data := saveV2(orig)
	loaded := New(0)
	if err := loaded.Load(bytes.NewReader(data), 9); err != nil {
		t.Fatalf("v2 load: %v", err)
	}
	if loaded.Len() != 3 {
		t.Fatalf("v2 load restored %d entries", loaded.Len())
	}
	for i, e := range loaded.entries {
		if e.Segments != nil {
			t.Fatalf("v2 entry %d has watermarks %+v (v2 predates them)", i, e.Segments)
		}
	}
	m := loaded.Lookup("lineorder1", testSchema, 1, 50, algebra.NewPredicate().WithRange("key", 11000, 12000))
	if m == nil || m.Reuse != algebra.ReuseFull {
		t.Fatalf("lookup after v2 load: %+v", m)
	}
	// A v2 store re-saved comes out in the current format.
	var buf bytes.Buffer
	if err := loaded.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(persistMagicV3)) {
		t.Fatal("re-save of a v2 store must write v3")
	}
}

// TestV3PayloadIsCorePlusMarks pins the v3 entry layout: the core is
// byte-identical to the v2 payload, and the watermark block is appended
// after it — the property the version-compat loaders rely on.
func TestV3PayloadIsCorePlusMarks(t *testing.T) {
	s := threeEntryStore(t)
	marks := []SegmentWatermark{{ID: 1, Version: 2, Rows: 500}}
	e := s.entries[0]
	s.Update(e, e.Sample, e.Predicate, marks)

	var core, full bytes.Buffer
	writeEntryCore(&core, e)
	writeEntryPayload(&full, e)
	if !bytes.HasPrefix(full.Bytes(), core.Bytes()) {
		t.Fatal("v3 payload does not start with the v2-identical core")
	}
	tail := full.Bytes()[core.Len():]
	got, err := readSegmentMarks(bufio.NewReader(bytes.NewReader(tail)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, marks) {
		t.Fatalf("decoded marks = %+v, want %+v", got, marks)
	}
}
