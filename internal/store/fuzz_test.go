package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"laqy/internal/algebra"
)

// corpusStore is a small two-entry store used for the committed seed
// corpus and the in-code fuzz seeds. It must stay deterministic: the
// committed corpus files are its exact serialization.
func corpusStore(tb testing.TB) *Store {
	tb.Helper()
	s := New(0)
	for i := 0; i < 2; i++ {
		lo := int64(i * 1000)
		if _, err := s.Put(Meta{
			Input:     "lineorder",
			Predicate: algebra.NewPredicate().WithRange("key", lo, lo+999),
			Schema:    testSchema, QCSWidth: 1, K: 4,
		}, makeSample(uint64(31+i), testSchema, 1, 4, 32)); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// corpusSeeds returns the interesting byte streams shared by the fuzz
// seeds and the committed corpus: a valid stream, truncations at
// structural boundaries, a flipped bit, hostile size claims, magics the
// loader refuses (the retired v1 and v2 among them), and entries with
// valid CRCs around sample blocks the writer never emits.
func corpusSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	s := corpusStore(tb)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	valid := buf.Bytes()

	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40

	// A frame whose length prefix claims far more than the stream holds.
	bigClaim := []byte(persistMagicV3)
	bigClaim = append(bigClaim, 0x01)             // one entry
	bigClaim = append(bigClaim, 0xFF, 0xFF, 0x7F) // ~2 MiB claimed payload
	bigClaim = append(bigClaim, []byte("tiny")...)

	seeds := [][]byte{
		valid,
		flipped,
		bigClaim,
		valid[:len(persistMagicV3)+1], // header only
		valid[:len(valid)-5],          // inside the footer
		valid[:len(valid)*2/3],        // mid-stream cut
		[]byte("LAQYSTO1"),            // retired v1 magic
		[]byte("LAQYSTO2"),            // retired v2 magic
		[]byte("LAQYSTO9garbage"),     // unknown version
		[]byte("not a store at all"),
		rawStore(nonCanonicalBlocks["unordered-keys"]),
		rawStore(nonCanonicalBlocks["repeated-key"]),
		rawStore(nonCanonicalBlocks["nan-weight"]),
	}
	return seeds
}

// TestGenerateFuzzCorpus rewrites the committed seed corpus under
// testdata/fuzz/FuzzStoreLoad. It is a generator, not a test: run it
// explicitly after changing the format.
//
//	LAQY_GEN_CORPUS=1 go test ./internal/store -run TestGenerateFuzzCorpus
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("LAQY_GEN_CORPUS") == "" {
		t.Skip("set LAQY_GEN_CORPUS=1 to regenerate the committed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzStoreLoad")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range corpusSeeds(t) {
		body := []byte("go test fuzz v1\n[]byte(" + quoteBytes(seed) + ")\n")
		name := filepath.Join(dir, fileNameForSeed(i))
		if err := os.WriteFile(name, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func fileNameForSeed(i int) string {
	names := []string{
		"valid-v3", "bitflip-v3", "big-length-claim",
		"header-only", "footer-cut", "midstream-cut",
		"bare-v1-magic", "bare-v2-magic", "unknown-version", "garbage",
		"unordered-keys", "repeated-key", "nan-weight",
	}
	if i < len(names) {
		return names[i]
	}
	return "seed-extra"
}

// quoteBytes renders data as a Go double-quoted string literal, the form
// the go fuzz corpus format expects inside []byte(...).
func quoteBytes(data []byte) string {
	var b bytes.Buffer
	b.WriteByte('"')
	for _, c := range data {
		switch {
		case c == '"':
			b.WriteString(`\"`)
		case c == '\\':
			b.WriteString(`\\`)
		case c >= 0x20 && c < 0x7F:
			b.WriteByte(c)
		default:
			const hex = "0123456789abcdef"
			b.WriteString(`\x`)
			b.WriteByte(hex[c>>4])
			b.WriteByte(hex[c&0xF])
		}
	}
	b.WriteByte('"')
	return b.String()
}

// FuzzStoreLoad drives both the strict and the salvage loaders over
// arbitrary byte streams and asserts the robustness contract:
//
//   - neither loader panics or allocates unboundedly, whatever the input;
//   - a salvage that reports *CorruptStoreError loaded exactly
//     CorruptStoreError.Loaded entries;
//   - a stream the strict loader accepts round-trips: re-saving the
//     loaded store produces a stream that loads to the same entry count.
func FuzzStoreLoad(f *testing.F) {
	for _, seed := range corpusSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4<<20 {
			return // keep per-exec cost bounded; the format cap tests cover big claims
		}
		strict := New(0)
		strictErr := strict.Load(bytes.NewReader(data), 1)
		if strictErr != nil && strict.Len() != 0 {
			t.Fatalf("strict load errored (%v) but installed %d entries", strictErr, strict.Len())
		}

		salvaged := New(0)
		err := salvaged.Salvage(bytes.NewReader(data), 1)
		var corrupt *CorruptStoreError
		switch {
		case err == nil:
			if strictErr != nil {
				t.Fatalf("salvage clean but strict load failed: %v", strictErr)
			}
		case errors.As(err, &corrupt):
			if corrupt.Loaded != salvaged.Len() {
				t.Fatalf("CorruptStoreError.Loaded = %d but store holds %d", corrupt.Loaded, salvaged.Len())
			}
			if len(corrupt.Dropped) == 0 && corrupt.Footer == "" {
				t.Fatal("CorruptStoreError carries neither drops nor a footer complaint")
			}
		default:
			if salvaged.Len() != 0 {
				t.Fatalf("unsalvageable stream (%v) still installed %d entries", err, salvaged.Len())
			}
		}

		if strictErr == nil {
			var buf bytes.Buffer
			if err := strict.Save(&buf); err != nil {
				t.Fatalf("re-save of a cleanly loaded store: %v", err)
			}
			reloaded := New(0)
			if err := reloaded.Load(bytes.NewReader(buf.Bytes()), 1); err != nil {
				t.Fatalf("round-trip load: %v", err)
			}
			if reloaded.Len() != strict.Len() {
				t.Fatalf("round-trip entry count %d != %d", reloaded.Len(), strict.Len())
			}
		}
	})
}
