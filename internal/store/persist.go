package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"

	"laqy/internal/algebra"
	"laqy/internal/iofault"
	"laqy/internal/rng"
	"laqy/internal/sample"
)

// Persistence: the sample store serializes to a compact binary format so
// samples built in one session serve as offline samples in the next — the
// paper's continuum between online and offline AQP made durable. The format
// is versioned and self-contained: predicates, schemas, stratum keys,
// weights, and tuple payloads.
//
// Format v3 ("LAQYSTO3", the one format Save writes and Load reads) frames
// every entry length-prefixed with a CRC32-C of its payload, then a
// checksummed footer, so torn writes, truncations and bit flips are
// detected per entry and salvage can skip exactly the damaged entries (see
// Salvage). Layout (all integers little-endian; varints are unsigned LEB128
// via encoding/binary's Uvarint; CRCs are CRC32-C / Castagnoli):
//
//	magic "LAQYSTO3"
//	uvarint entryCount
//	frame*:
//	  uvarint payloadLen
//	  payload [payloadLen]byte          (entry encoding, below)
//	  uint32  crc32c(payload)
//	footer:
//	  magic "LAQYFTR2"
//	  uvarint entryCount               (must equal the header count)
//	  uint32  crc32c(payload₀ ‖ payload₁ ‖ …)   (whole-store digest)
//	  uint32  crc32c(footer magic ‖ count ‖ digest)
//
// Entry encoding:
//
//	string input
//	predicate:  uvarint #cols { string name; uvarint #ivs { int64 lo, hi } }
//	schema:     uvarint #cols { string name }
//	uvarint qcsWidth, uvarint k
//	sample:     uvarint #strata
//	  stratum*: int64 key[MaxQCS]; float64 weight;
//	            uvarint resK, width, tupleCount; int64 data[count*width]
//	segments:   uvarint #marks { uvarint id; uvarint version; uvarint rows }
//	            (per-segment high-water marks, docs/SHARDING.md)
//
// Any other magic — the retired v2 ("LAQYSTO2", entries without the
// segments block, written by no build since segment marks arrived) and
// the unframed, unchecksummed v1 ("LAQYSTO1") among them — is refused.
const (
	persistMagicV3 = "LAQYSTO3"
	footerMagic    = "LAQYFTR2"
)

// Hard caps on attacker-controlled (or corruption-controlled) size fields:
// every allocation driven by a decoded length is validated against one of
// these before make, so a flipped bit in a count cannot drive an unbounded
// allocation.
const (
	// maxEntries bounds the store entry count field.
	maxEntries = 1 << 24
	// maxEntryPayload bounds one entry frame's payload (256 MiB).
	maxEntryPayload = 1 << 28
	// maxStratumInts bounds one stratum's tuple payload in int64s
	// (256 MiB): count*width and resK*width must stay under it.
	maxStratumInts = 1 << 25
	// maxStringLen bounds persisted strings (column names, inputs).
	maxStringLen = 1 << 20
	// maxSchemaCols bounds the per-entry schema width.
	maxSchemaCols = 1 << 16
	// maxPredIntervals bounds the interval count of one predicate column.
	// Building a set is quadratic in the interval count, so this cap is
	// deliberately small: real predicates carry a handful of ranges, and a
	// corrupted count must not turn loading into an O(n²) stall.
	maxPredIntervals = 1 << 12
	// maxStrata bounds the per-entry stratum count.
	maxStrata = 1 << 26
	// maxReservoirK bounds the persisted reservoir capacity fields.
	maxReservoirK = 1 << 30
	// maxSegmentMarks bounds the per-entry segment watermark count.
	maxSegmentMarks = 1 << 20
)

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DroppedEntry describes one store entry that salvage had to discard.
type DroppedEntry struct {
	// Index is the entry's position in the file (-1 when unknown, e.g.
	// footer damage).
	Index int
	// Reason says what was wrong (CRC mismatch, truncation, ...).
	Reason string
}

// CorruptStoreError reports partial corruption: the healthy entries were
// loaded, the ones listed in Dropped were not. It is returned by Salvage
// (never by the strict Load) so callers can log what was lost and let the
// dropped samples rebuild lazily online — graceful degradation instead of
// a failed startup.
type CorruptStoreError struct {
	// Path is the store file, when known.
	Path string
	// Loaded is the number of entries successfully restored.
	Loaded int
	// Dropped lists the discarded entries.
	Dropped []DroppedEntry
	// Footer describes footer damage ("" when the footer was intact).
	Footer string
}

// Error implements error.
func (e *CorruptStoreError) Error() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "store: corrupt sample store")
	if e.Path != "" {
		fmt.Fprintf(&b, " %s", e.Path)
	}
	fmt.Fprintf(&b, ": salvaged %d entries, dropped %d", e.Loaded, len(e.Dropped))
	for i, d := range e.Dropped {
		if i == 8 {
			fmt.Fprintf(&b, "; … %d more", len(e.Dropped)-i)
			break
		}
		if d.Index >= 0 {
			fmt.Fprintf(&b, "; entry %d: %s", d.Index, d.Reason)
		} else {
			fmt.Fprintf(&b, "; %s", d.Reason)
		}
	}
	if e.Footer != "" {
		fmt.Fprintf(&b, "; footer: %s", e.Footer)
	}
	return b.String()
}

// binWriter is the writer surface the encoders need; both *bufio.Writer
// and *bytes.Buffer satisfy it.
type binWriter interface {
	io.Writer
	io.StringWriter
}

// Save serializes the store's entries to w in format v3. The LRU clock is
// not persisted; loaded entries start fresh.
func (s *Store) Save(w io.Writer) error {
	err := s.save(w)
	if err != nil {
		s.met.saveErrors.Inc()
	} else {
		s.met.saves.Inc()
	}
	return err
}

func (s *Store) save(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(persistMagicV3); err != nil {
		return err
	}
	writeUvarint(bw, uint64(len(s.entries)))
	digest := crc32.New(castagnoli)
	var payload bytes.Buffer
	for _, e := range s.entries {
		payload.Reset()
		writeEntryPayload(&payload, e)
		if payload.Len() > maxEntryPayload {
			return fmt.Errorf("store: entry payload %d bytes exceeds the %d-byte format cap", payload.Len(), maxEntryPayload)
		}
		writeUvarint(bw, uint64(payload.Len()))
		if _, err := bw.Write(payload.Bytes()); err != nil {
			return err
		}
		writeUint32(bw, crc32.Checksum(payload.Bytes(), castagnoli))
		digest.Write(payload.Bytes()) //laqy:allow errchecklite hash.Hash Write never fails (documented)
	}
	var footer bytes.Buffer
	footer.WriteString(footerMagic)
	writeUvarint(&footer, uint64(len(s.entries)))
	writeUint32(&footer, digest.Sum32())
	if _, err := bw.Write(footer.Bytes()); err != nil {
		return err
	}
	writeUint32(bw, crc32.Checksum(footer.Bytes(), castagnoli))
	return bw.Flush()
}

// SaveFile writes the store to path durably: temp file in the target
// directory, fsync on the file, atomic rename, fsync on the parent
// directory. After a crash at any point, the path holds either the
// complete previous store or the complete new one.
func (s *Store) SaveFile(path string) error {
	return s.SaveFileFS(iofault.OS, path)
}

// SaveFileFS is SaveFile over an injectable filesystem (the
// fault-injection seam used by the crash-consistency harness).
func (s *Store) SaveFileFS(fsys iofault.FS, path string) error {
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := s.Save(f); err != nil {
		_ = f.Close()        // best-effort cleanup; the Save error is the one to report
		_ = fsys.Remove(tmp) // best-effort cleanup of the temp file
		return err
	}
	// fsync the data before the rename publishes the name: without it a
	// crash can expose the new name with torn or empty content.
	if err := f.Sync(); err != nil {
		_ = f.Close()        // best-effort cleanup; the Sync error is the one to report
		_ = fsys.Remove(tmp) // best-effort cleanup of the temp file
		return err
	}
	if err := f.Close(); err != nil {
		_ = fsys.Remove(tmp) // best-effort cleanup of the temp file
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		_ = fsys.Remove(tmp) // best-effort cleanup of the temp file
		return err
	}
	// fsync the parent directory so the rename itself is durable.
	return fsys.SyncDir(dir)
}

// Load appends entries deserialized from r to the store, strictly: any
// corruption fails the whole load and the store is left unchanged. seed
// derives the RNG substreams of the restored reservoirs, keeping loaded
// samples usable for further merging. Use Salvage to load around damage.
func (s *Store) Load(r io.Reader, seed uint64) error {
	return s.load(r, seed, false, "")
}

// Salvage loads what it can from r: entries whose frame checksum or
// decoding fails are skipped, healthy ones are appended to the store. If
// anything was damaged the returned error is a *CorruptStoreError
// detailing the drops; a nil return means the file was fully intact.
// Errors that leave nothing to salvage (unreadable header, wrong magic)
// are returned as plain errors.
func (s *Store) Salvage(r io.Reader, seed uint64) error {
	return s.load(r, seed, true, "")
}

// LoadFile reads a store file written by SaveFile, strictly.
func (s *Store) LoadFile(path string, seed uint64) error {
	return s.LoadFileFS(iofault.OS, path, seed)
}

// LoadFileFS is LoadFile over an injectable filesystem.
func (s *Store) LoadFileFS(fsys iofault.FS, path string, seed uint64) error {
	f, err := fsys.Open(path)
	if err != nil {
		return err
	}
	defer f.Close() //laqy:allow errchecklite read-only file; Close cannot lose data
	return s.load(f, seed, false, path)
}

// SalvageFileFS is Salvage over a file path on an injectable filesystem
// (see Salvage for the contract).
func (s *Store) SalvageFileFS(fsys iofault.FS, path string, seed uint64) error {
	f, err := fsys.Open(path)
	if err != nil {
		return err
	}
	defer f.Close() //laqy:allow errchecklite read-only file; Close cannot lose data
	return s.load(f, seed, true, path)
}

// load drives both the strict and salvage paths. Decoded entries are
// installed only after the whole stream is processed, so a strict failure
// leaves the store unchanged.
func (s *Store) load(r io.Reader, seed uint64, salvage bool, path string) error {
	err := s.loadInner(r, seed, salvage, path)
	switch e := err.(type) {
	case nil:
		s.met.loads.Inc()
	case *CorruptStoreError:
		// Salvage recovered what it could: the load itself succeeded.
		s.met.loads.Inc()
		s.met.salvaged.Add(int64(e.Loaded))
		s.met.salvageDropped.Add(int64(len(e.Dropped)))
	default:
		s.met.loadErrors.Inc()
	}
	return err
}

func (s *Store) loadInner(r io.Reader, seed uint64, salvage bool, path string) error {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, len(persistMagicV3))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("store: reading magic: %w", err)
	}
	if string(magic) != persistMagicV3 {
		return fmt.Errorf("store: bad magic %q (not a LAQy sample store, or unsupported version)", magic)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("store: reading entry count: %w", err)
	}
	if count > maxEntries {
		return fmt.Errorf("store: implausible entry count %d", count)
	}
	gen := rng.NewLehmer64(seed ^ 0x570E)
	corrupt := &CorruptStoreError{Path: path}
	loaded, err := readAllFramed(br, count, gen, salvage, corrupt)
	if err != nil {
		return err
	}
	s.mu.Lock()
	for _, e := range loaded {
		s.clock++
		e.lastUsed = s.clock
		s.entries = append(s.entries, e)
		s.total += e.Sample.SizeBytes()
	}
	s.enforceBudgetLocked()
	s.refreshGaugesLocked()
	s.mu.Unlock()
	if len(corrupt.Dropped) > 0 || corrupt.Footer != "" {
		corrupt.Loaded = len(loaded)
		return corrupt
	}
	return nil
}

// readAllFramed decodes the framed entry stream: every entry is
// length-prefixed and CRC-checked, so salvage skips exactly the damaged
// frames and keeps going. A corrupted length prefix desyncs the frame
// stream; the remaining entries are then reported dropped.
func readAllFramed(br *bufio.Reader, count uint64, gen *rng.Lehmer64, salvage bool, corrupt *CorruptStoreError) ([]*Entry, error) {
	var loaded []*Entry
	digest := crc32.New(castagnoli)
	for i := uint64(0); i < count; i++ {
		payloadLen, err := binary.ReadUvarint(br)
		if err == nil && payloadLen > maxEntryPayload {
			err = fmt.Errorf("frame payload %d bytes exceeds the %d-byte cap", payloadLen, maxEntryPayload)
		}
		if err != nil {
			if !salvage {
				return nil, fmt.Errorf("store: entry %d: reading frame header: %w", i, err)
			}
			corrupt.Dropped = append(corrupt.Dropped, DroppedEntry{
				Index:  int(i),
				Reason: fmt.Sprintf("frame header unreadable: %v (this and all later entries lost)", err),
			})
			return loaded, nil
		}
		// Grow the payload buffer only as bytes actually arrive: a tiny
		// corrupted file claiming a 256 MiB frame must fail with a read
		// error, not a giant up-front allocation.
		var payloadBuf bytes.Buffer
		_, rerr := io.CopyN(&payloadBuf, br, int64(payloadLen))
		payload := payloadBuf.Bytes()
		if rerr != nil {
			if !salvage {
				return nil, fmt.Errorf("store: entry %d: reading %d-byte payload: %w", i, payloadLen, rerr)
			}
			corrupt.Dropped = append(corrupt.Dropped, DroppedEntry{
				Index:  int(i),
				Reason: fmt.Sprintf("payload truncated: %v", rerr),
			})
			return loaded, nil
		}
		stored, err := readUint32(br)
		if err != nil {
			if !salvage {
				return nil, fmt.Errorf("store: entry %d: reading frame CRC: %w", i, err)
			}
			corrupt.Dropped = append(corrupt.Dropped, DroppedEntry{Index: int(i), Reason: "frame CRC truncated"})
			return loaded, nil
		}
		digest.Write(payload) //laqy:allow errchecklite hash.Hash Write never fails (documented)
		if got := crc32.Checksum(payload, castagnoli); got != stored {
			if !salvage {
				return nil, fmt.Errorf("store: entry %d: CRC mismatch (stored %08x, computed %08x)", i, stored, got)
			}
			corrupt.Dropped = append(corrupt.Dropped, DroppedEntry{
				Index:  int(i),
				Reason: fmt.Sprintf("CRC mismatch (stored %08x, computed %08x)", stored, got),
			})
			continue // framing preserved: skip just this entry
		}
		e, err := decodeEntryPayload(payload, gen.Split(i))
		if err != nil {
			if !salvage {
				return nil, fmt.Errorf("store: entry %d: %w", i, err)
			}
			corrupt.Dropped = append(corrupt.Dropped, DroppedEntry{Index: int(i), Reason: err.Error()})
			continue
		}
		loaded = append(loaded, e)
	}
	if err := checkFooter(br, count, digest.Sum32(), len(corrupt.Dropped) > 0); err != nil {
		if !salvage {
			return nil, err
		}
		corrupt.Footer = err.Error()
	}
	return loaded, nil
}

// checkFooter validates the trailer. entriesDropped relaxes the
// whole-store digest check: when salvage already skipped frames the
// digest cannot match, and the per-entry CRCs carry the integrity claim.
func checkFooter(br *bufio.Reader, count uint64, digest uint32, entriesDropped bool) error {
	var footer bytes.Buffer
	marker := make([]byte, len(footerMagic))
	if _, err := io.ReadFull(br, marker); err != nil {
		return fmt.Errorf("store: reading footer magic: %w", err)
	}
	if string(marker) != footerMagic {
		return fmt.Errorf("store: bad footer magic %q", marker)
	}
	footer.Write(marker) //laqy:allow errchecklite bytes.Buffer Write never fails
	footerCount, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("store: reading footer entry count: %w", err)
	}
	writeUvarint(&footer, footerCount)
	footerDigest, err := readUint32(br)
	if err != nil {
		return fmt.Errorf("store: reading footer digest: %w", err)
	}
	writeUint32(&footer, footerDigest)
	footerCRC, err := readUint32(br)
	if err != nil {
		return fmt.Errorf("store: reading footer CRC: %w", err)
	}
	if got := crc32.Checksum(footer.Bytes(), castagnoli); got != footerCRC {
		return fmt.Errorf("store: footer CRC mismatch (stored %08x, computed %08x)", footerCRC, got)
	}
	if footerCount != count {
		return fmt.Errorf("store: footer entry count %d does not match header count %d", footerCount, count)
	}
	if !entriesDropped && footerDigest != digest {
		return fmt.Errorf("store: whole-store digest mismatch (stored %08x, computed %08x)", footerDigest, digest)
	}
	return nil
}

// readSegmentMarks decodes the per-segment provenance block.
func readSegmentMarks(r *bufio.Reader) ([]SegmentWatermark, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("reading segment mark count: %w", err)
	}
	if n > maxSegmentMarks {
		return nil, fmt.Errorf("implausible segment mark count %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	marks := make([]SegmentWatermark, n)
	for i := range marks {
		id, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		version, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		rows, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		if id > maxSegmentMarks || rows > math.MaxInt32 {
			return nil, fmt.Errorf("implausible segment mark %d/%d", id, rows)
		}
		marks[i] = SegmentWatermark{ID: int(id), Version: version, Rows: int(rows)}
	}
	return marks, nil
}

// writeEntryPayload encodes one entry: input, predicate, the stratified
// block, then the per-segment provenance block. Writing into a
// bytes.Buffer cannot fail; bufio destinations surface errors on the
// caller's Flush.
func writeEntryPayload(w binWriter, e *Entry) {
	writeString(w, e.Input)
	// Predicate.
	cols := e.Predicate.Columns()
	writeUvarint(w, uint64(len(cols)))
	for _, c := range cols {
		writeString(w, c)
		set, _ := e.Predicate.Constraint(c)
		ivs := set.Intervals()
		writeUvarint(w, uint64(len(ivs)))
		for _, iv := range ivs {
			writeInt64(w, iv.Lo)
			writeInt64(w, iv.Hi)
		}
	}
	// Schema + parameters + sample payload (the shared stratified block,
	// also the unit of the shard wire codec — internal/shard).
	writeStratifiedBlock(w, e.Schema, e.QCSWidth, e.K, e.Sample)
	writeUvarint(w, uint64(len(e.Segments)))
	for _, m := range e.Segments {
		writeUvarint(w, uint64(m.ID))
		writeUvarint(w, m.Version)
		writeUvarint(w, uint64(m.Rows))
	}
}

// writeStratifiedBlock encodes the schema/qcsWidth/k header and the
// per-stratum reservoir payload — the sample portion of the entry
// encoding.
func writeStratifiedBlock(w binWriter, schema sample.Schema, qcsWidth, k int, sam *sample.Stratified) {
	writeUvarint(w, uint64(len(schema)))
	for _, c := range schema {
		writeString(w, c)
	}
	writeUvarint(w, uint64(qcsWidth))
	writeUvarint(w, uint64(k))
	writeUvarint(w, uint64(sam.NumStrata()))
	sam.ForEach(func(key sample.StratumKey, r *sample.Reservoir) {
		for _, v := range key {
			writeInt64(w, v)
		}
		writeFloat64(w, r.Weight())
		writeUvarint(w, uint64(r.K()))
		writeUvarint(w, uint64(r.Width()))
		writeUvarint(w, uint64(r.Len()))
		for i := 0; i < r.Len(); i++ {
			for _, v := range r.Tuple(i) {
				writeInt64(w, v)
			}
		}
	})
}

// EncodeStratified serializes one stratified sample as the store's
// stratified block (schema, QCS width, capacity, strata) — the payload the
// shard RPC moves between a segment daemon and its coordinator. The bytes
// are exactly the sample portion of a store entry, so store-format
// hardening (caps, overflow checks) covers the wire too.
func EncodeStratified(sam *sample.Stratified) []byte {
	var buf bytes.Buffer
	writeStratifiedBlock(&buf, sam.Schema(), sam.QCSWidth(), sam.K(), sam)
	return buf.Bytes()
}

// DecodeStratified restores a stratified sample encoded by
// EncodeStratified, as a builder (sample.Seal publishes it). seed derives
// the restored reservoirs' RNG substreams (matching the Load contract);
// trailing bytes after the block are an error, so a truncated or padded
// frame cannot decode silently.
func DecodeStratified(data []byte, seed uint64) (*sample.Builder, error) {
	br := bufio.NewReader(bytes.NewReader(data))
	gen := rng.NewLehmer64(seed ^ 0x570E)
	_, _, _, sam, err := readStratifiedBlock(br, gen)
	if err != nil {
		return nil, err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("trailing bytes after stratified block")
	}
	return sam, nil
}

// decodeEntryPayload parses one CRC-validated entry payload, the inverse
// of writeEntryPayload.
func decodeEntryPayload(payload []byte, gen *rng.Lehmer64) (*Entry, error) {
	r := bufio.NewReader(bytes.NewReader(payload))
	input, err := readString(r)
	if err != nil {
		return nil, err
	}
	nCols, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if nCols > maxSchemaCols {
		return nil, fmt.Errorf("implausible predicate column count %d", nCols)
	}
	pred := algebra.NewPredicate()
	for c := uint64(0); c < nCols; c++ {
		name, err := readString(r)
		if err != nil {
			return nil, err
		}
		nIvs, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		if nIvs > maxPredIntervals {
			return nil, fmt.Errorf("implausible interval count %d", nIvs)
		}
		var set algebra.Set
		for i := uint64(0); i < nIvs; i++ {
			lo, err := readInt64(r)
			if err != nil {
				return nil, err
			}
			hi, err := readInt64(r)
			if err != nil {
				return nil, err
			}
			set = set.Union(algebra.SetOf(algebra.Interval{Lo: lo, Hi: hi}))
		}
		pred = pred.With(name, set)
	}
	schema, qcsWidth, k, sam, err := readStratifiedBlock(r, gen)
	if err != nil {
		return nil, err
	}
	e := &Entry{
		Meta: Meta{
			Input:     input,
			Predicate: pred,
			Schema:    schema,
			QCSWidth:  qcsWidth,
			K:         k,
		},
	}
	if e.Segments, err = readSegmentMarks(r); err != nil {
		return nil, err
	}
	if _, err := r.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("trailing bytes after entry payload")
	}
	e.Sample = sample.Seal(sam, 1)
	return e, nil
}

// readStratifiedBlock mirrors writeStratifiedBlock: schema, QCS width,
// capacity, then the per-stratum reservoirs, with every decoded length
// validated against the format caps before allocation. Only the block the
// writer emits decodes: strata in strictly ascending key order
// (StratumKey.Compare, so no key twice) with finite weights.
func readStratifiedBlock(r *bufio.Reader, gen *rng.Lehmer64) (sample.Schema, int, int, *sample.Builder, error) {
	nSchema, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	if nSchema == 0 || nSchema > maxSchemaCols {
		return nil, 0, 0, nil, fmt.Errorf("implausible schema size %d", nSchema)
	}
	schema := make(sample.Schema, nSchema)
	for i := range schema {
		if schema[i], err = readString(r); err != nil {
			return nil, 0, 0, nil, err
		}
	}
	qcsWidth, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	k, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	if int(qcsWidth) > len(schema) || qcsWidth > sample.MaxQCS {
		return nil, 0, 0, nil, fmt.Errorf("invalid QCS width %d for %d columns", qcsWidth, len(schema))
	}
	if k == 0 || k > maxReservoirK {
		return nil, 0, 0, nil, fmt.Errorf("invalid reservoir capacity %d", k)
	}

	sam := sample.NewBuilder(schema, int(qcsWidth), int(k), gen.Split(0))
	nStrata, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	if nStrata > maxStrata {
		return nil, 0, 0, nil, fmt.Errorf("implausible strata count %d", nStrata)
	}
	var prev sample.StratumKey
	for i := uint64(0); i < nStrata; i++ {
		var key sample.StratumKey
		for c := range key {
			if key[c], err = readInt64(r); err != nil {
				return nil, 0, 0, nil, err
			}
		}
		if i > 0 && prev.Compare(key) >= 0 {
			return nil, 0, 0, nil, fmt.Errorf("stratum key %v does not follow %v", key, prev)
		}
		prev = key
		weight, err := readFloat64(r)
		if err != nil {
			return nil, 0, 0, nil, err
		}
		resK, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, 0, 0, nil, err
		}
		width, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, 0, 0, nil, err
		}
		count, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, 0, 0, nil, err
		}
		if width != uint64(len(schema)) {
			return nil, 0, 0, nil, fmt.Errorf("stratum width %d does not match schema of %d columns", width, len(schema))
		}
		if resK == 0 || resK > maxReservoirK {
			return nil, 0, 0, nil, fmt.Errorf("invalid stratum capacity %d", resK)
		}
		if count > resK {
			return nil, 0, 0, nil, fmt.Errorf("stratum holds %d tuples above capacity %d", count, resK)
		}
		// Overflow-checked, capped allocation: width ≤ maxSchemaCols and
		// count ≤ resK ≤ maxReservoirK, so the uint64 products cannot
		// overflow; both the stored payload (count·width) and the claimed
		// capacity (resK·width, which continued sampling may grow into)
		// are checked against the hard cap before any allocation happens,
		// closing the corrupt-file OOM vector.
		if resK*width > maxStratumInts {
			return nil, 0, 0, nil, fmt.Errorf("stratum capacity %d×%d exceeds the %d-int cap", resK, width, maxStratumInts)
		}
		if count*width > maxStratumInts {
			return nil, 0, 0, nil, fmt.Errorf("stratum payload %d×%d exceeds the %d-int cap", count, width, maxStratumInts)
		}
		// Bounded incremental allocation: start small and append as tuples
		// actually decode, so a truncated stream claiming a huge (but
		// sub-cap) stratum fails on the read, not on an up-front make.
		total := count * width
		initial := total
		if initial > 4096 {
			initial = 4096
		}
		data := make([]int64, 0, initial)
		for j := uint64(0); j < total; j++ {
			v, err := readInt64(r)
			if err != nil {
				return nil, 0, 0, nil, err
			}
			data = append(data, v)
		}
		res, err := sample.RestoreReservoir(int(resK), int(width), weight, data, gen.Split(i+1))
		if err != nil {
			return nil, 0, 0, nil, err
		}
		if err := sam.Restore(key, res); err != nil {
			return nil, 0, 0, nil, err
		}
	}
	return schema, int(qcsWidth), int(k), sam, nil
}

func writeUvarint(w binWriter, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n]) //laqy:allow errchecklite bytes.Buffer never fails; bufio errors are sticky and surfaced by the caller's Flush
}

func writeUint32(w binWriter, v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	w.Write(buf[:]) //laqy:allow errchecklite bytes.Buffer never fails; bufio errors are sticky and surfaced by the caller's Flush
}

func writeInt64(w binWriter, v int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	w.Write(buf[:]) //laqy:allow errchecklite bytes.Buffer never fails; bufio errors are sticky and surfaced by the caller's Flush
}

func writeFloat64(w binWriter, v float64) {
	writeInt64(w, int64(math.Float64bits(v)))
}

func writeString(w binWriter, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s) //laqy:allow errchecklite bytes.Buffer never fails; bufio errors are sticky and surfaced by the caller's Flush
}

func readUint32(r *bufio.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

func readInt64(r *bufio.Reader) (int64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(buf[:])), nil
}

func readFloat64(r *bufio.Reader) (float64, error) {
	v, err := readInt64(r)
	return math.Float64frombits(uint64(v)), err
}

func readString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
