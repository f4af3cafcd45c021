package core

import (
	"context"
	"errors"
	"testing"

	"laqy/internal/governor"
	"laqy/internal/store"
)

// TestServeStoredMissReturnsTyped pins the bottom rung's miss contract:
// reuse-only mode with an empty store is unservable, reported via the
// ErrNoStoredSample sentinel so the caller can pick the next rung.
func TestServeStoredMissReturnsTyped(t *testing.T) {
	fact := testFact(factRows, groups)
	l := New(store.New(0), 1)
	req := request(fact, 0, 9999)
	req.ServeStored = true
	_, err := l.Sample(req)
	if !errors.Is(err, governor.ErrNoStoredSample) {
		t.Fatalf("err = %v, want ErrNoStoredSample", err)
	}
}

// TestServeStoredFullMatchIsNormalOffline: reuse-only mode with a fully
// subsuming stored sample behaves exactly like a normal offline serve —
// no staleness, no degradation.
func TestServeStoredFullMatchIsNormalOffline(t *testing.T) {
	fact := testFact(factRows, groups)
	l := New(store.New(0), 1)
	if _, err := l.Sample(request(fact, 0, 9999)); err != nil {
		t.Fatal(err)
	}
	req := request(fact, 0, 9999)
	req.ServeStored = true
	res, err := l.Sample(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeOffline || res.Stale {
		t.Fatalf("mode=%v stale=%v, want clean offline", res.Mode, res.Stale)
	}
	if res.Stats.RowsScanned != 0 {
		t.Fatal("reuse-only serve must not scan")
	}
}

// TestServeStoredPartialIsStale: reuse-only mode with a partial overlap
// serves the stored sample as-is — zero rows scanned — labeled stale with
// a skip_delta degradation and the inverse of its coverage as Scale.
func TestServeStoredPartialIsStale(t *testing.T) {
	fact := testFact(factRows, groups)
	l := New(store.New(0), 1)
	if _, err := l.Sample(request(fact, 0, 9999)); err != nil {
		t.Fatal(err)
	}
	// [0,19999] half-covered by the stored [0,9999].
	req := request(fact, 0, 19999)
	req.ServeStored = true
	res, err := l.Sample(req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stale || res.Mode != ModeOffline {
		t.Fatalf("stale=%v mode=%v, want stale offline", res.Stale, res.Mode)
	}
	if res.Stats.RowsScanned != 0 {
		t.Fatalf("scanned %d rows, want 0 (no Δ-scan)", res.Stats.RowsScanned)
	}
	if res.Scale < 1.8 || res.Scale > 2.2 {
		t.Fatalf("scale = %v, want ~2 (half the range covered)", res.Scale)
	}
	if len(res.Degradations) != 1 || res.Degradations[0].Step != governor.DegradeSkipDelta {
		t.Fatalf("degradations = %v, want one skip_delta", res.Degradations)
	}
	// The extrapolated COUNT estimate should land near the true 20000
	// qualifying rows even though only [0,9999] was sampled.
	est := res.Sample.TotalWeight() * res.Scale
	if est < 15000 || est > 25000 {
		t.Fatalf("extrapolated weight = %v, want ~20000", est)
	}
	// The store keeps its original coverage: a stale serve must not
	// advertise coverage it did not build.
	if l.Store().Len() != 1 {
		t.Fatalf("store len = %d, want 1", l.Store().Len())
	}
}

// TestOnlineShrinksReservoirToBudget: a tight memory budget halves K until
// the build fits, recording a shrink_reservoir degradation instead of
// failing the query.
func TestOnlineShrinksReservoirToBudget(t *testing.T) {
	fact := testFact(factRows, groups)
	l := New(store.New(0), 1)
	// Full-K estimate: 200·3·8·8·3 = 115200 bytes. Budget 40 KiB forces
	// at least one halving (100 → 57600 still too big; 50 → 28800 fits).
	gov := governor.New(governor.Config{QueryMemoryBytes: 40 << 10})
	req := request(fact, 0, 9999)
	req.Budget = gov.NewQueryBudget()
	res, err := l.Sample(req)
	req.Budget.ReleaseAll()
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeOnline {
		t.Fatalf("mode = %v, want online", res.Mode)
	}
	found := false
	for _, d := range res.Degradations {
		if d.Step == governor.DegradeShrinkReservoir {
			found = true
		}
	}
	if !found {
		t.Fatalf("degradations = %v, want shrink_reservoir", res.Degradations)
	}
	if got := gov.Stats().MemUsed; got != 0 {
		t.Fatalf("MemUsed after ReleaseAll = %d, want 0", got)
	}
}

// TestBudgetFloorFailsQueryTyped: when even the minimum reservoir does not
// fit, the query fails with the typed budget error — never a panic, never
// an unlabeled answer.
func TestBudgetFloorFailsQueryTyped(t *testing.T) {
	fact := testFact(factRows, groups)
	l := New(store.New(0), 1)
	gov := governor.New(governor.Config{QueryMemoryBytes: 512})
	req := request(fact, 0, 9999)
	req.Budget = gov.NewQueryBudget()
	_, err := l.Sample(req)
	req.Budget.ReleaseAll()
	if !errors.Is(err, governor.ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
}

// TestDeltaBudgetDenialDegradesToStoredServe: a Δ-build that does not fit
// the budget degrades to the stored-serve rung (reason: memory budget)
// instead of failing or scanning.
func TestDeltaBudgetDenialDegradesToStoredServe(t *testing.T) {
	fact := testFact(factRows, groups)
	l := New(store.New(0), 1)
	if _, err := l.Sample(request(fact, 0, 9999)); err != nil {
		t.Fatal(err)
	}
	gov := governor.New(governor.Config{QueryMemoryBytes: 1 << 10})
	req := request(fact, 0, 19999)
	req.Budget = gov.NewQueryBudget()
	res, err := l.Sample(req)
	req.Budget.ReleaseAll()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stale {
		t.Fatalf("want stale stored serve, got mode=%v stale=%v", res.Mode, res.Stale)
	}
	if len(res.Degradations) != 1 || res.Degradations[0].Reason != "memory budget" {
		t.Fatalf("degradations = %v, want skip_delta(memory budget)", res.Degradations)
	}
}

// TestSampleObservesContextBeforeLookup: a pre-canceled context fails the
// request before any store or engine work.
func TestSampleObservesContextBeforeLookup(t *testing.T) {
	fact := testFact(factRows, groups)
	l := New(store.New(0), 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := request(fact, 0, 9999)
	req.Query.Ctx = ctx
	_, err := l.Sample(req)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if l.Store().Len() != 0 {
		t.Fatal("canceled request must not store a sample")
	}
}
