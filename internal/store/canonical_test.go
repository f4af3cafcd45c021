package store

import (
	"bytes"
	"hash/crc32"
	"math"
	"testing"

	"laqy/internal/sample"
)

// rawStratum is one stratum of a hand-written stratified block over the
// schema (g, v), QCS width 1 and capacity 4: key g at weight, holding the
// tuples (g, v) for every v in vals.
type rawStratum struct {
	g      int64
	weight float64
	vals   []int64
}

// rawBlock writes a stratified block field by field, so a test can spell
// blocks the writer never emits.
func rawBlock(strata ...rawStratum) []byte {
	var b bytes.Buffer
	writeUvarint(&b, 2)
	writeString(&b, "g")
	writeString(&b, "v")
	writeUvarint(&b, 1) // QCS width
	writeUvarint(&b, 4) // k
	writeUvarint(&b, uint64(len(strata)))
	for _, s := range strata {
		for _, v := range (sample.StratumKey{s.g}) {
			writeInt64(&b, v)
		}
		writeFloat64(&b, s.weight)
		writeUvarint(&b, 4) // stratum capacity
		writeUvarint(&b, 2) // width
		writeUvarint(&b, uint64(len(s.vals)))
		for _, v := range s.vals {
			writeInt64(&b, s.g)
			writeInt64(&b, v)
		}
	}
	return b.Bytes()
}

// rawStore frames block as the one entry of a v3 store file, with valid
// CRCs: an entry over "lineorder" with no predicate and no segment marks.
func rawStore(block []byte) []byte {
	var payload bytes.Buffer
	writeString(&payload, "lineorder")
	writeUvarint(&payload, 0) // predicate columns
	payload.Write(block)
	writeUvarint(&payload, 0) // segment marks
	var out, footer bytes.Buffer
	out.WriteString(persistMagicV3)
	writeUvarint(&out, 1)
	writeUvarint(&out, uint64(payload.Len()))
	out.Write(payload.Bytes())
	writeUint32(&out, crc32.Checksum(payload.Bytes(), castagnoli))
	footer.WriteString(footerMagic)
	writeUvarint(&footer, 1)
	writeUint32(&footer, crc32.Checksum(payload.Bytes(), castagnoli))
	out.Write(footer.Bytes())
	writeUint32(&out, crc32.Checksum(footer.Bytes(), castagnoli))
	return out.Bytes()
}

// nonCanonicalBlocks are the blocks the decoder must refuse: strata out
// of key order, a key twice, and weights that are not finite.
var nonCanonicalBlocks = map[string][]byte{
	"unordered-keys": rawBlock(rawStratum{2, 1, []int64{20}}, rawStratum{1, 1, []int64{10}}),
	"repeated-key":   rawBlock(rawStratum{1, 2, []int64{10, 11}}, rawStratum{1, 1, []int64{12}}),
	"nan-weight":     rawBlock(rawStratum{1, math.NaN(), []int64{10}}),
	"inf-weight":     rawBlock(rawStratum{1, math.Inf(1), []int64{10}}),
	"-inf-weight":    rawBlock(rawStratum{1, math.Inf(-1), []int64{10}}),
}

// TestDecodeRejectsNonCanonicalBlocks: a stratified block decodes — from a
// shard frame's payload or from a store file — only as the writer spells
// it, strata in strictly ascending key order under the signed comparison
// (StratumKey.Compare) and every weight finite, and then re-encodes to the
// bytes it came from. The store's own frame CRCs are valid in every case:
// the refusal is the decoder's.
func TestDecodeRejectsNonCanonicalBlocks(t *testing.T) {
	canonical := rawBlock(rawStratum{-3, 5, []int64{1, 2, 3, 4}}, rawStratum{1, 2, []int64{10, 11}}, rawStratum{2, 1, []int64{20}})
	dec, err := DecodeStratified(canonical, 1)
	if err != nil {
		t.Fatalf("canonical block: %v", err)
	}
	if re := EncodeStratified(sample.Seal(dec, 1)); !bytes.Equal(re, canonical) {
		t.Fatal("canonical block re-encodes to other bytes")
	}
	if err := New(0).Load(bytes.NewReader(rawStore(canonical)), 1); err != nil {
		t.Fatalf("canonical store: %v", err)
	}
	for name, block := range nonCanonicalBlocks {
		t.Run(name, func(t *testing.T) {
			if dec, err := DecodeStratified(block, 1); err == nil {
				t.Fatalf("decoded to %d strata of total weight %v", dec.NumStrata(), dec.TotalWeight())
			}
			s := New(0)
			if err := s.Load(bytes.NewReader(rawStore(block)), 1); err == nil || s.Len() != 0 {
				t.Fatalf("store load: err %v, %d entries", err, s.Len())
			}
		})
	}
}
