// Package shard is the coordinator side of distributed segments
// (docs/SHARDING.md, "Distributed"): RPC-backed engine.SegmentSource
// implementations that run per-segment stratified builds on remote laqyd
// shard nodes, with bounded jittered retries, hedged reads to a follower,
// and a health-tracked node pool (EWMA latency + consecutive-failure
// circuit breakers probed via /readyz). A segment whose shards exhaust
// retries and hedges is reported with engine.ErrSegmentUnavailable, which
// the coordinator converts into the drop_segments degradation rung — a
// labeled, extrapolated 206 instead of a failed query.
package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"laqy/internal/engine"
	"laqy/internal/sample"
	"laqy/internal/store"
)

// The reservoir wire frame moves one per-segment partial reservoir from a
// shard node to its coordinator:
//
//	magic "LAQYRSV1"
//	uvarint payloadLen
//	payload [payloadLen]byte:
//	  uvarint rowsScanned, rowsSelected, morselsPruned, morselsFull
//	  uvarint scanNS, processNS, mergeNS, wallNS
//	  stratified block (store.EncodeStratified — the v3 sample encoding)
//	uint32 crc32c(payload)
//
// The sample bytes reuse the store's entry encoding verbatim, so the
// store's corruption hardening (capped allocations, overflow checks,
// trailing-byte detection) covers the network path too; the CRC catches
// truncation and bit damage before any decode runs, and a version bump is
// a new magic.
const frameMagic = "LAQYRSV1"

// maxFramePayload caps one frame's payload, mirroring the store's
// per-entry cap (256 MiB): a corrupt or hostile length field must not
// drive an unbounded read.
const maxFramePayload = 1 << 28

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// EncodeFrame serializes one per-segment build result as a versioned,
// CRC-protected reservoir frame. Of st it carries the eight fields the
// frame header lists — what the coordinator folds into the query's
// accounting (coverage arithmetic needs RowsScanned; EXPLAIN ANALYZE shows
// the rest).
func EncodeFrame(sam *sample.Stratified, st engine.Stats) []byte {
	var payload bytes.Buffer
	putUvarint(&payload, uint64(clampNonNeg(st.RowsScanned)))
	putUvarint(&payload, uint64(clampNonNeg(st.RowsSelected)))
	putUvarint(&payload, uint64(clampNonNeg(st.MorselsPruned)))
	putUvarint(&payload, uint64(clampNonNeg(st.MorselsFull)))
	putUvarint(&payload, uint64(clampNonNeg(int64(st.Scan))))
	putUvarint(&payload, uint64(clampNonNeg(int64(st.Process))))
	putUvarint(&payload, uint64(clampNonNeg(int64(st.Merge))))
	putUvarint(&payload, uint64(clampNonNeg(int64(st.Wall))))
	payload.Write(store.EncodeStratified(sam)) //laqy:allow errchecklite bytes.Buffer Write never fails

	var out bytes.Buffer
	out.Grow(len(frameMagic) + binary.MaxVarintLen64 + payload.Len() + 4)
	out.WriteString(frameMagic) //laqy:allow errchecklite bytes.Buffer never fails
	putUvarint(&out, uint64(payload.Len()))
	out.Write(payload.Bytes()) //laqy:allow errchecklite bytes.Buffer never fails
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload.Bytes(), castagnoli))
	out.Write(crc[:]) //laqy:allow errchecklite bytes.Buffer never fails
	return out.Bytes()
}

// DecodeFrame parses a reservoir frame: magic, length (capped), CRC over
// the payload, then the stats header and the store-encoded sample. seed
// derives the restored reservoirs' RNG substreams and must match the
// build seed for deterministic downstream merging. Trailing bytes after
// the frame, a truncated payload, or any CRC mismatch are errors — a
// byzantine shard cannot smuggle a half-frame past the coordinator. Of the
// returned stats only the eight header fields are set.
func DecodeFrame(data []byte, seed uint64) (*sample.Builder, engine.Stats, error) {
	var st engine.Stats
	if len(data) < len(frameMagic) || string(data[:len(frameMagic)]) != frameMagic {
		return nil, st, fmt.Errorf("shard: bad reservoir frame magic")
	}
	rest := data[len(frameMagic):]
	payloadLen, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, st, fmt.Errorf("shard: unreadable frame length")
	}
	if payloadLen > maxFramePayload {
		return nil, st, fmt.Errorf("shard: frame payload %d bytes exceeds the %d-byte cap", payloadLen, maxFramePayload)
	}
	rest = rest[n:]
	if uint64(len(rest)) < payloadLen+4 {
		return nil, st, fmt.Errorf("shard: truncated frame: %d bytes for a %d-byte payload", len(rest), payloadLen)
	}
	payload := rest[:payloadLen]
	stored := binary.LittleEndian.Uint32(rest[payloadLen : payloadLen+4])
	if extra := uint64(len(rest)) - payloadLen - 4; extra != 0 {
		return nil, st, fmt.Errorf("shard: %d trailing bytes after frame", extra)
	}
	if got := crc32.Checksum(payload, castagnoli); got != stored {
		return nil, st, fmt.Errorf("shard: frame CRC mismatch (stored %08x, computed %08x)", stored, got)
	}

	fields := []*int64{
		&st.RowsScanned, &st.RowsSelected, &st.MorselsPruned, &st.MorselsFull,
		(*int64)(&st.Scan), (*int64)(&st.Process), (*int64)(&st.Merge), (*int64)(&st.Wall),
	}
	off := 0
	for _, f := range fields {
		v, n := binary.Uvarint(payload[off:])
		if n <= 0 {
			return nil, st, fmt.Errorf("shard: truncated stats header")
		}
		if v > 1<<62 {
			return nil, st, fmt.Errorf("shard: implausible stats value %d", v)
		}
		*f = int64(v)
		off += n
	}
	sam, err := store.DecodeStratified(payload[off:], seed)
	if err != nil {
		return nil, st, fmt.Errorf("shard: decoding reservoir: %w", err)
	}
	return sam, st, nil
}

func putUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n]) //laqy:allow errchecklite bytes.Buffer Write never fails
}

func clampNonNeg(v int64) int64 {
	if v < 0 {
		return 0
	}
	return v
}
