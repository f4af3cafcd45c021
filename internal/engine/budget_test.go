package engine

import (
	"testing"

	"laqy/internal/governor"
)

// TestGroupByBudgetAccounting: a group-by that fits its per-query budget
// succeeds, holds its reservations while it runs, and leaves the global
// pool clean after ReleaseAll. (The denial side — a typed
// *governor.MemoryBudgetError at a morsel boundary — is a driver failure
// case in TestScanDriverFailures.)
func TestGroupByBudgetAccounting(t *testing.T) {
	gov := governor.New(governor.Config{QueryMemoryBytes: 1 << 20})
	budget := gov.NewQueryBudget()
	res, _, err := RunGroupBy(&Query{Fact: buildFact(50000, 7, 10), Budget: budget}, []string{"f_group"}, "f_val", 4)
	if err != nil {
		t.Fatalf("budgeted small group-by: %v", err)
	}
	if res.NumGroups() != 7 {
		t.Fatalf("NumGroups = %d, want 7", res.NumGroups())
	}
	if used := budget.Used(); used <= 0 {
		t.Fatalf("budget.Used() = %d, want > 0 while reservations held", used)
	}
	budget.ReleaseAll()
	if got := gov.Stats().MemUsed; got != 0 {
		t.Fatalf("global MemUsed = %d, want 0", got)
	}
}

// TestGroupByNilBudgetUnlimited pins the zero-config path: a nil budget
// never denies.
func TestGroupByNilBudgetUnlimited(t *testing.T) {
	fact := buildFact(20000, 20000, 10)
	q := &Query{Fact: fact, Budget: nil}
	res, _, err := RunGroupBy(q, []string{"f_key"}, "f_val", 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumGroups() != 20000 {
		t.Fatalf("NumGroups = %d, want 20000", res.NumGroups())
	}
}
