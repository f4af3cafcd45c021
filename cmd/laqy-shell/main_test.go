package main

import (
	"os"
	"strings"
	"testing"
	"time"

	"laqy"
)

func testDB(t *testing.T) *laqy.DB {
	t.Helper()
	db := laqy.Open(laqy.Config{Workers: 2, DefaultK: 64, Seed: 1})
	if err := db.LoadSSB(20_000, 4); err != nil {
		t.Fatal(err)
	}
	return db
}

// captureStdout runs fn with stdout redirected and returns what it printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		buf := make([]byte, 1<<20)
		var out []byte
		for {
			n, err := r.Read(buf)
			out = append(out, buf[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(out)
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}

func TestExecutePrintsResults(t *testing.T) {
	db := testDB(t)
	out := captureStdout(t, func() {
		execute(db, `SELECT d_year, SUM(lo_revenue) FROM lineorder, date
			WHERE lo_orderdate = d_datekey GROUP BY d_year APPROX`)
	})
	if !strings.Contains(out, "d_year | SUM(lo_revenue)") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "mode=online") {
		t.Fatalf("missing mode line:\n%s", out)
	}
	if !strings.Contains(out, "±[") {
		t.Fatal("approximate results should print confidence intervals")
	}
}

func TestExecuteExactHasNoCI(t *testing.T) {
	db := testDB(t)
	out := captureStdout(t, func() {
		execute(db, `SELECT d_year, SUM(lo_revenue) FROM lineorder, date
			WHERE lo_orderdate = d_datekey GROUP BY d_year`)
	})
	if strings.Contains(out, "±[") {
		t.Fatal("exact results must not print confidence intervals")
	}
	if !strings.Contains(out, "mode=exact") {
		t.Fatalf("missing exact mode:\n%s", out)
	}
}

func TestExecuteReportsErrors(t *testing.T) {
	db := testDB(t)
	out := captureStdout(t, func() { execute(db, "not sql") })
	if !strings.Contains(out, "error:") {
		t.Fatalf("parse error not reported:\n%s", out)
	}
}

func TestExecuteTruncatesLongResults(t *testing.T) {
	db := testDB(t)
	out := captureStdout(t, func() {
		execute(db, `SELECT lo_orderdate, COUNT(*) FROM lineorder GROUP BY lo_orderdate`)
	})
	if !strings.Contains(out, "more rows)") {
		t.Fatalf("expected truncation notice:\n%s", out)
	}
}

func TestMetaCommands(t *testing.T) {
	db := testDB(t)
	out := captureStdout(t, func() {
		if !meta(db, `\tables`) {
			t.Error("\\tables should not exit")
		}
		meta(db, `\stats`)
		meta(db, `\clear`)
		meta(db, `\help`)
		meta(db, `\unknown`)
	})
	for _, want := range []string{"lineorder", "samples:", "sample store cleared", "unknown command"} {
		if !strings.Contains(out, want) {
			t.Errorf("meta output missing %q", want)
		}
	}
	if meta(db, `\q`) {
		t.Error("\\q should exit")
	}
}

func TestExecuteExplain(t *testing.T) {
	db := testDB(t)
	out := captureStdout(t, func() {
		execute(db, `EXPLAIN SELECT d_year, SUM(lo_revenue) FROM lineorder, date
			WHERE lo_orderdate = d_datekey AND lo_intkey BETWEEN 0 AND 999
			GROUP BY d_year APPROX WITH K 64`)
	})
	for _, want := range []string{"approx aggregate", "sampler:", "hash join", "scan lineorder", "matching predicate"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	out2 := captureStdout(t, func() { execute(db, "EXPLAIN not sql") })
	if !strings.Contains(out2, "error:") {
		t.Fatal("explain of bad SQL should report an error")
	}
}

func TestMetaSamples(t *testing.T) {
	db := testDB(t)
	out := captureStdout(t, func() { meta(db, `\samples`) })
	if !strings.Contains(out, "no cached samples") {
		t.Fatalf("empty store output:\n%s", out)
	}
	if _, err := db.Query(`SELECT lo_quantity, SUM(lo_revenue) FROM lineorder
		GROUP BY lo_quantity APPROX WITH K 16`); err != nil {
		t.Fatal(err)
	}
	out = captureStdout(t, func() { meta(db, `\samples`) })
	if !strings.Contains(out, "lineorder") || !strings.Contains(out, "k=16") {
		t.Fatalf("samples output:\n%s", out)
	}
}

func TestMetaDescribe(t *testing.T) {
	db := testDB(t)
	out := captureStdout(t, func() { meta(db, `\d supplier`) })
	if !strings.Contains(out, "s_region") || !strings.Contains(out, "5 distinct values") {
		t.Fatalf("describe output:\n%s", out)
	}
	out = captureStdout(t, func() { meta(db, `\d nope`) })
	if !strings.Contains(out, "error:") {
		t.Fatalf("unknown table:\n%s", out)
	}
	out = captureStdout(t, func() { meta(db, `\d`) })
	if !strings.Contains(out, "usage") {
		t.Fatalf("missing usage:\n%s", out)
	}
}

func TestMetaTimeout(t *testing.T) {
	db := testDB(t)
	t.Cleanup(func() { queryTimeout = 0 })

	out := captureStdout(t, func() { meta(db, `\timeout`) })
	if !strings.Contains(out, "off") {
		t.Fatalf("default should be off:\n%s", out)
	}
	out = captureStdout(t, func() { meta(db, `\timeout 50ms`) })
	if !strings.Contains(out, "50ms") || queryTimeout != 50*time.Millisecond {
		t.Fatalf("set 50ms (got %v):\n%s", queryTimeout, out)
	}
	out = captureStdout(t, func() { meta(db, `\timeout`) })
	if !strings.Contains(out, "50ms") {
		t.Fatalf("show current:\n%s", out)
	}
	out = captureStdout(t, func() { meta(db, `\timeout bogus`) })
	if !strings.Contains(out, "usage") || queryTimeout != 50*time.Millisecond {
		t.Fatalf("bad duration must not change the setting:\n%s", out)
	}
	out = captureStdout(t, func() { meta(db, `\timeout off`) })
	if !strings.Contains(out, "off") || queryTimeout != 0 {
		t.Fatalf("turn off:\n%s", out)
	}
}

func TestExecuteHonorsTimeout(t *testing.T) {
	db := testDB(t)
	queryTimeout = time.Nanosecond
	t.Cleanup(func() { queryTimeout = 0 })
	out := captureStdout(t, func() {
		execute(db, `SELECT SUM(lo_revenue) FROM lineorder`)
	})
	if !strings.Contains(out, "error:") || !strings.Contains(out, "deadline") {
		t.Fatalf("1ns timeout should fail with a deadline error:\n%s", out)
	}
}

func TestMetaGovernor(t *testing.T) {
	db := testDB(t)
	out := captureStdout(t, func() { meta(db, `\governor`) })
	if !strings.Contains(out, "slots:") || !strings.Contains(out, "mean hold:") {
		t.Fatalf("governor status:\n%s", out)
	}
}
