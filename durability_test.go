package laqy

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCanceledContextSkipsRetryPass: with APPROX ERROR, a first pass whose
// realized bound misses the target triggers a resized-K retry and then an
// exact fallback — both rescan the base data. When the first pass is served
// offline from a stored sample it never observes the context, so the retry
// path must check cancellation itself before launching a scan.
func TestCanceledContextSkipsRetryPass(t *testing.T) {
	db := openSSB(t, 40000)
	warm := `SELECT SUM(lo_revenue) FROM lineorder
		WHERE lo_intkey BETWEEN 0 AND 9999 APPROX WITH K 16`
	if _, err := db.Query(warm); err != nil {
		t.Fatal(err)
	}
	// Sanity: the warmed sample serves this query offline, and a K-16
	// sample cannot meet a 0.001% bound — a live context falls back to
	// exact execution.
	live, err := db.Query(warm + ` ERROR 0.001 CONFIDENCE 99`)
	if err != nil {
		t.Fatal(err)
	}
	if live.Mode != ModeExactFallback {
		t.Fatalf("live mode = %q, want exact_fallback", live.Mode)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = db.QueryContext(ctx, warm+` ERROR 0.001 CONFIDENCE 99`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled before the rescan passes", err)
	}
}

// TestLoadSamplesSalvagesCorruptFile: the DB-level load degrades
// gracefully on a damaged store file — it logs through Config.Logger, keeps
// the salvageable samples, and lets queries rebuild the dropped ones
// lazily. The strict variant refuses the same file.
func TestLoadSamplesSalvagesCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "samples.laqy")
	q1 := `SELECT lo_orderdate, SUM(lo_revenue) FROM lineorder
		WHERE lo_intkey BETWEEN 0 AND 9999 GROUP BY lo_orderdate APPROX WITH K 64`
	q2 := `SELECT lo_orderdate, SUM(lo_revenue) FROM lineorder
		WHERE lo_intkey BETWEEN 20000 AND 29999 GROUP BY lo_orderdate APPROX WITH K 64`

	db1 := Open(Config{Workers: 2, Seed: 9})
	if err := db1.LoadSSB(30000, 4); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{q1, q2} {
		if _, err := db1.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := db1.SaveSamples(path); err != nil {
		t.Fatal(err)
	}

	// Flip a bit inside the first entry's payload (the frame region starts
	// a dozen bytes in and runs for kilobytes).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[100] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	logger := &recordingLogger{}
	db2 := Open(Config{Workers: 2, Seed: 9, Logger: logger})
	if err := db2.LoadSSB(30000, 4); err != nil {
		t.Fatal(err)
	}
	// Strict load refuses the damaged file outright.
	if err := db2.LoadSamplesStrict(path); err == nil {
		t.Fatal("strict load must reject a corrupt store file")
	}
	if db2.SampleStoreStats().Samples != 0 {
		t.Fatal("a failed strict load must not install entries")
	}
	// Graceful load salvages around the damage and warns.
	if err := db2.LoadSamples(path); err != nil {
		t.Fatalf("salvaging load: %v", err)
	}
	if got := db2.SampleStoreStats().Samples; got != 1 {
		t.Fatalf("salvaged %d samples, want 1", got)
	}
	if warns := logger.lines; len(warns) != 1 || !strings.HasPrefix(warns[0], "warn: ") || !strings.Contains(warns[0], "salvaged") {
		t.Fatalf("log lines = %q, want one warning naming the salvage", warns)
	}

	// The surviving sample serves its query offline; the dropped one
	// rebuilds lazily online.
	res2, err := db2.Query(q2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Mode != ModeOffline {
		t.Fatalf("surviving sample: mode = %q, want offline", res2.Mode)
	}
	res1, err := db2.Query(q1)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Mode != ModeOnline {
		t.Fatalf("dropped sample: mode = %q, want online rebuild", res1.Mode)
	}
}
