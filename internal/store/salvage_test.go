package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"laqy/internal/algebra"
	"laqy/internal/sample"
)

// threeEntryStore builds a store with three distinguishable entries.
func threeEntryStore(t *testing.T) *Store {
	t.Helper()
	s := New(0)
	for i := 0; i < 3; i++ {
		lo := int64(i * 10000)
		if _, err := s.Put(Meta{
			Input:     fmt.Sprintf("lineorder%d", i),
			Predicate: algebra.NewPredicate().WithRange("key", lo, lo+9999),
			Schema:    testSchema, QCSWidth: 1, K: 50,
		}, makeSample(uint64(100+i), testSchema, 1, 50, 2000)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// framePayloads walks a saved store's byte stream and returns each entry payload's
// [start, end) range plus the offset where the footer begins.
func framePayloads(t *testing.T, data []byte) (payloads [][2]int, footerStart int) {
	t.Helper()
	pos := len(persistMagicV3)
	count, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		t.Fatal("bad header")
	}
	pos += n
	for i := uint64(0); i < count; i++ {
		plen, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			t.Fatal("bad frame header")
		}
		pos += n
		payloads = append(payloads, [2]int{pos, pos + int(plen)})
		pos += int(plen) + 4 // payload + CRC
	}
	return payloads, pos
}

func TestSaveWritesV3Magic(t *testing.T) {
	s := populatedStore(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(persistMagicV3)) {
		t.Fatalf("Save wrote magic %q", buf.Bytes()[:8])
	}
	if !bytes.Contains(buf.Bytes(), []byte(footerMagic)) {
		t.Fatal("v3 stream is missing its footer")
	}
}

// TestEveryBitFlipIsDetected sweeps single-bit flips across the whole
// stream: the strict loader must reject every one of them — no silent
// acceptance of corrupted data anywhere in the file.
func TestEveryBitFlipIsDetected(t *testing.T) {
	// A compact two-entry store keeps the exhaustive sweep fast while still
	// covering every structural region: magic, count, frame headers, entry
	// payloads, CRCs, and the footer.
	s := New(0)
	for i := 0; i < 2; i++ {
		lo := int64(i * 10000)
		if _, err := s.Put(Meta{
			Input:     fmt.Sprintf("lineorder%d", i),
			Predicate: algebra.NewPredicate().WithRange("key", lo, lo+9999),
			Schema:    testSchema, QCSWidth: 1, K: 8,
		}, makeSample(uint64(100+i), testSchema, 1, 8, 64)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	// Exhaustive (stride 1) normally; sampled under -short so the race gate
	// stays quick. 37 is coprime with the format's power-of-two field sizes,
	// so sampling still lands in every structural region.
	stride := 1
	if testing.Short() || len(clean) > 1<<16 {
		stride = 37
	}
	for off := 0; off < len(clean); off += stride {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), clean...)
			mut[off] ^= 1 << bit
			loaded := New(0)
			if err := loaded.Load(bytes.NewReader(mut), 1); err == nil {
				t.Fatalf("bit flip at byte %d bit %d went undetected by the strict loader", off, bit)
			}
			if loaded.Len() != 0 {
				t.Fatalf("strict loader installed entries despite corruption at byte %d", off)
			}
		}
	}
}

// TestSalvageSkipsFlippedEntry flips a bit inside each entry payload in
// turn and asserts salvage drops exactly that entry, loads the others,
// and names the drop in the CorruptStoreError.
func TestSalvageSkipsFlippedEntry(t *testing.T) {
	s := threeEntryStore(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	payloads, _ := framePayloads(t, clean)
	if len(payloads) != 3 {
		t.Fatalf("expected 3 frames, got %d", len(payloads))
	}
	for idx, span := range payloads {
		mut := append([]byte(nil), clean...)
		mid := (span[0] + span[1]) / 2
		mut[mid] ^= 0x10
		loaded := New(0)
		err := loaded.Salvage(bytes.NewReader(mut), 1)
		var corrupt *CorruptStoreError
		if !errors.As(err, &corrupt) {
			t.Fatalf("entry %d: salvage err = %v, want *CorruptStoreError", idx, err)
		}
		if loaded.Len() != 2 || corrupt.Loaded != 2 {
			t.Fatalf("entry %d: salvaged %d entries (reported %d), want 2", idx, loaded.Len(), corrupt.Loaded)
		}
		if len(corrupt.Dropped) != 1 || corrupt.Dropped[0].Index != idx {
			t.Fatalf("entry %d: dropped = %+v", idx, corrupt.Dropped)
		}
		if !strings.Contains(corrupt.Dropped[0].Reason, "CRC") {
			t.Fatalf("entry %d: reason %q does not name the CRC", idx, corrupt.Dropped[0].Reason)
		}
		// The two surviving entries still answer lookups.
		for i := 0; i < 3; i++ {
			if i == idx {
				continue
			}
			m := loaded.Lookup(fmt.Sprintf("lineorder%d", i), testSchema, 1, 10,
				algebra.NewPredicate().WithRange("key", int64(i*10000), int64(i*10000)+100))
			if m == nil || m.Reuse != algebra.ReuseFull {
				t.Fatalf("entry %d flipped: surviving entry %d unusable: %+v", idx, i, m)
			}
		}
	}
}

// TestSalvageTruncations truncates the stream at and inside every
// frame boundary: strict load always errors; salvage recovers exactly the
// complete frames before the cut.
func TestSalvageTruncations(t *testing.T) {
	s := threeEntryStore(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	payloads, footerStart := framePayloads(t, clean)
	type cut struct {
		at   int
		want int // complete entries recoverable
	}
	cuts := []cut{
		{len(persistMagicV3) + 1, 0},               // inside the header
		{payloads[0][0] + 10, 0},                   // inside entry 0's payload
		{payloads[0][1] + 2, 0},                    // inside entry 0's CRC
		{payloads[1][0] - 1, 1},                    // inside entry 1's frame header
		{(payloads[1][0] + payloads[1][1]) / 2, 1}, // mid entry 1
		{payloads[2][1] + 4, 3},                    // after the last frame, footer missing
		{footerStart + 3, 3},                       // inside the footer magic
		{len(clean) - 2, 3},                        // inside the footer CRC
	}
	for _, c := range cuts {
		mut := clean[:c.at]
		strict := New(0)
		if err := strict.Load(bytes.NewReader(mut), 1); err == nil {
			t.Fatalf("truncation at %d accepted by strict load", c.at)
		}
		loaded := New(0)
		err := loaded.Salvage(bytes.NewReader(mut), 1)
		var corrupt *CorruptStoreError
		if !errors.As(err, &corrupt) {
			t.Fatalf("truncation at %d: salvage err = %v, want *CorruptStoreError", c.at, err)
		}
		if loaded.Len() != c.want || corrupt.Loaded != c.want {
			t.Fatalf("truncation at %d: salvaged %d entries (reported %d), want %d",
				c.at, loaded.Len(), corrupt.Loaded, c.want)
		}
	}
}

// TestSalvageUnsalvageable: wrong magic (the retired v2 among them) and
// unreadable headers are plain errors — nothing to salvage, nothing loaded.
func TestSalvageUnsalvageable(t *testing.T) {
	for _, data := range []string{"", "short", "NOTASTORE---", "LAQYSTO2", persistMagicV3} {
		loaded := New(0)
		err := loaded.Salvage(strings.NewReader(data), 1)
		if err == nil {
			t.Fatalf("salvage of %q must error", data)
		}
		var corrupt *CorruptStoreError
		if errors.As(err, &corrupt) {
			t.Fatalf("salvage of %q: %v should be a plain error, not CorruptStoreError", data, err)
		}
		if loaded.Len() != 0 {
			t.Fatalf("salvage of %q installed %d entries", data, loaded.Len())
		}
	}
}

// TestLoadRejectsV1Magic: the unframed, unchecksummed v1 format is no
// longer read. A well-formed v1 stream (one that older builds loaded) is
// refused by both loaders with the bad-magic error, and the store it was
// offered to keeps exactly what it held.
func TestLoadRejectsV1Magic(t *testing.T) {
	src := threeEntryStore(t)
	var v1 bytes.Buffer
	v1.WriteString("LAQYSTO1")
	writeUvarint(&v1, uint64(len(src.entries)))
	for _, e := range src.entries {
		writeEntryPayload(&v1, e)
	}
	for name, load := range map[string]func(*Store) error{
		"strict":  func(s *Store) error { return s.Load(bytes.NewReader(v1.Bytes()), 1) },
		"salvage": func(s *Store) error { return s.Salvage(bytes.NewReader(v1.Bytes()), 1) },
	} {
		dst := populatedStore(t)
		before := dst.Len()
		err := load(dst)
		if err == nil || !strings.Contains(err.Error(), `bad magic "LAQYSTO1"`) {
			t.Fatalf("%s load of a v1 stream: err = %v, want the bad-magic error", name, err)
		}
		var corrupt *CorruptStoreError
		if errors.As(err, &corrupt) {
			t.Fatalf("%s: %v should be a plain error, not CorruptStoreError", name, err)
		}
		if dst.Len() != before {
			t.Fatalf("%s: store went from %d to %d entries", name, before, dst.Len())
		}
	}
}

// TestLoadRejectsOversizedAllocation crafts entries whose size fields
// claim gigantic strata, framed as intact payloads (valid frame CRC, valid
// footer) so nothing but the size fields is wrong; the loader must reject
// them from those fields alone — before any allocation and before reading
// the tuple data that is not there — closing the corrupt-file OOM vector.
// Under the retired v2 magic the same frames are refused at the magic,
// before any size field is read.
func TestLoadRejectsOversizedAllocation(t *testing.T) {
	craft := func(resK, count, width uint64) []byte {
		var buf bytes.Buffer
		writeString(&buf, "t")
		writeUvarint(&buf, 0) // no predicate columns
		writeUvarint(&buf, 1) // schema: one column
		writeString(&buf, "a")
		writeUvarint(&buf, 0) // qcsWidth
		writeUvarint(&buf, 5) // k
		writeUvarint(&buf, 1) // one stratum
		for i := 0; i < sample.MaxQCS; i++ {
			writeInt64(&buf, 0)
		}
		writeFloat64(&buf, float64(count))
		writeUvarint(&buf, resK)
		writeUvarint(&buf, width)
		writeUvarint(&buf, count)
		// No tuple data: the loader must fail before trying to read it.
		return buf.Bytes()
	}
	cases := []struct {
		name               string
		resK, count, width uint64
	}{
		{"huge count", 1 << 29, 1 << 26, 1},
		{"huge capacity", 1 << 29, 1, 1},
		{"count over capacity", 8, 1 << 40, 1},
		{"capacity over format cap", 1 << 40, 1, 1},
		{"zero capacity", 0, 0, 1},
	}
	for _, c := range cases {
		for _, magic := range []string{"LAQYSTO2", persistMagicV3} {
			t.Run(c.name+"/"+magic, func(t *testing.T) {
				loaded := New(0)
				data := frameStore(magic, craft(c.resK, c.count, c.width))
				err := loaded.Load(bytes.NewReader(data), 1)
				if err == nil {
					t.Fatal("oversized stratum accepted")
				}
				if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("rejected only by running out of bytes, not by the size caps: %v", err)
				}
				if magic != persistMagicV3 && !strings.Contains(err.Error(), "bad magic") {
					t.Fatalf("retired magic: err = %v, want the bad-magic refusal", err)
				}
			})
		}
	}
}

// TestCorruptStoreErrorMessage pins the error rendering surfaced to logs.
func TestCorruptStoreErrorMessage(t *testing.T) {
	err := &CorruptStoreError{
		Path:   "/data/s.laqy",
		Loaded: 2,
		Dropped: []DroppedEntry{
			{Index: 1, Reason: "CRC mismatch (stored 0000abcd, computed 0000ef01)"},
			{Index: -1, Reason: "tail unrecoverable"},
		},
		Footer: "footer CRC mismatch",
	}
	msg := err.Error()
	for _, want := range []string{"/data/s.laqy", "salvaged 2", "dropped 2", "entry 1", "CRC mismatch", "footer"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error message %q missing %q", msg, want)
		}
	}
}
