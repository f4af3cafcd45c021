package par

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goid returns the calling goroutine's id, read off its stack header.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// atLeastProcs raises GOMAXPROCS to n for the rest of the test: Claim
// starts no more helpers than GOMAXPROCS can run.
func atLeastProcs(t *testing.T, n int) {
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// TestClaimRunsEachIndexOnce: every index of [0, n) runs exactly once,
// whatever the number of items and of workers; the participants that ran
// made one body each, no more than workers; and a run of one item or one
// worker is one body on the caller.
func TestClaimRunsEachIndexOnce(t *testing.T) {
	atLeastProcs(t, 8)
	for _, n := range []int{0, 1, 2, 7, 73} {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				visits := make([]atomic.Int32, n)
				var bodies atomic.Int32
				caller, onCaller := goid(), true
				var mu sync.Mutex
				ran, err := Claim(n, workers, func(int) func(i int) error {
					bodies.Add(1)
					if goid() != caller {
						mu.Lock()
						onCaller = false
						mu.Unlock()
					}
					return func(i int) error {
						visits[i].Add(1)
						return nil
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := range visits {
					if v := visits[i].Load(); v != 1 {
						t.Errorf("index %d ran %d times", i, v)
					}
				}
				if int(bodies.Load()) != ran || ran > workers || ran > n {
					t.Errorf("%d bodies, ran %d, for %d items and %d workers", bodies.Load(), ran, n, workers)
				}
				if (n <= 1 || workers == 1) && (ran != min(n, 1) || !onCaller) {
					t.Errorf("inline run: ran %d, on caller %v; want %d, true", ran, onCaller, min(n, 1))
				}
			})
		}
	}
}

// TestClaimNumbersParticipantsAtFirstClaim: participant numbers are dense
// in the order of first claims, and a helper that starts after every item
// is claimed makes no body and takes no number.
func TestClaimNumbersParticipantsAtFirstClaim(t *testing.T) {
	atLeastProcs(t, 4)
	const n = 4
	for range 20 {
		var mu sync.Mutex
		var numbers []int
		// The items are instant but the last, so the first participant to
		// run often claims them all before the others start; the last item
		// keeps the run open while they start and find nothing left.
		ran, err := Claim(n, n, func(p int) func(i int) error {
			mu.Lock()
			numbers = append(numbers, p)
			mu.Unlock()
			return func(i int) error {
				if i == n-1 {
					time.Sleep(5 * time.Millisecond)
				}
				return nil
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, ran)
		for _, p := range numbers {
			if p < 0 || p >= ran || seen[p] {
				t.Fatalf("participant numbers %v are not dense in [0, %d)", numbers, ran)
			}
			seen[p] = true
		}
		if ran != len(numbers) {
			t.Fatalf("ran %d with %d bodies, numbered %v", ran, len(numbers), numbers)
		}
	}
}

// TestClaimErrorStopsLaterClaims: the first error a body returns is
// Claim's, and items claimed after it do not run — inline, in index order,
// and across participants, where each participant fails its first item
// and so no more items run than participants were numbered.
func TestClaimErrorStopsLaterClaims(t *testing.T) {
	atLeastProcs(t, 4)
	errStop := errors.New("stop")
	var last int
	ran, err := Claim(10, 1, func(int) func(i int) error {
		return func(i int) error {
			last = i
			if i == 3 {
				return errStop
			}
			return nil
		}
	})
	if !errors.Is(err, errStop) || ran != 1 || last != 3 {
		t.Fatalf("inline: err %v, ran %d, last item %d; want stop, 1, 3", err, ran, last)
	}

	const n = 1000
	var items atomic.Int32
	ran, err = Claim(n, 4, func(int) func(i int) error {
		return func(int) error {
			items.Add(1)
			return errStop
		}
	})
	if !errors.Is(err, errStop) {
		t.Fatalf("err = %v, want the body's error", err)
	}
	if got := int(items.Load()); got > ran || ran > 4 {
		t.Fatalf("%d of %d items ran over %d participants after every body failed its first", got, n, ran)
	}
}

// TestClaimHelperPanicReachesCaller: a panic in an item a helper runs does
// not kill the process; it is returned to the caller once the claimed
// items have ended, as a *Panic carrying the original value and the
// helper's stack.
func TestClaimHelperPanicReachesCaller(t *testing.T) {
	atLeastProcs(t, 2)
	caller := goid()
	helperRan := make(chan struct{})
	var once sync.Once
	_, err := Claim(6, 2, func(int) func(i int) error {
		onHelper := goid() != caller
		return func(int) error {
			if onHelper {
				once.Do(func() { close(helperRan) })
				panic("poisoned item")
			}
			select {
			case <-helperRan:
			case <-time.After(10 * time.Second):
			}
			return nil
		}
	})
	var p *Panic
	if !errors.As(err, &p) {
		t.Fatalf("Claim returned %v (%T), want the helper's panic as a *Panic", err, err)
	}
	if p.Value != "poisoned item" || !strings.Contains(p.Error(), "poisoned item") ||
		!strings.Contains(string(p.Stack), "par_test.go") {
		t.Fatalf("Panic{%v, %d stack bytes}, want the helper's value and stack", p.Value, len(p.Stack))
	}
}

// TestClaimCallerPanicWaitsForHelpers: a panic in the caller's own item is
// returned once the helpers' claimed items have ended, so no item outlives
// the run; inline, it is returned as a *Panic too.
func TestClaimCallerPanicWaitsForHelpers(t *testing.T) {
	atLeastProcs(t, 2)
	caller := goid()
	var running atomic.Int32
	helperRunning := make(chan struct{})
	var once sync.Once
	_, err := Claim(64, 2, func(int) func(i int) error {
		onCaller := goid() == caller
		return func(int) error {
			running.Add(1)
			defer running.Add(-1)
			if onCaller {
				select {
				case <-helperRunning:
				case <-time.After(10 * time.Second):
				}
				panic("caller item")
			}
			once.Do(func() { close(helperRunning) })
			time.Sleep(5 * time.Millisecond)
			return nil
		}
	})
	if !errors.As(err, new(*Panic)) {
		t.Fatalf("err = %v, want the caller's panic", err)
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("Claim returned with %d items still running", n)
	}

	_, err = Claim(3, 1, func(int) func(i int) error {
		panic("inline worker")
	})
	if p := (*Panic)(nil); !errors.As(err, &p) || p.Value != "inline worker" {
		t.Fatalf("inline err = %v, want the worker's panic", err)
	}
}

// TestClaimInlineAllocatesNothing: a run of one worker or of one item
// makes no allocation of the driver's and runs every item on the caller.
func TestClaimInlineAllocatesNothing(t *testing.T) {
	atLeastProcs(t, 4)
	body := func(int) error { return nil }
	worker := func(int) func(int) error { return body }
	caller := goid()
	for _, c := range []struct{ n, workers int }{{8, 1}, {1, 4}, {0, 4}} {
		if a := testing.AllocsPerRun(100, func() { _, _ = Claim(c.n, c.workers, worker) }); a != 0 {
			t.Errorf("Claim(%d, %d) allocated %v times per run", c.n, c.workers, a)
		}
		_, _ = Claim(c.n, c.workers, func(int) func(int) error {
			if goid() != caller {
				t.Errorf("Claim(%d, %d) made a body off the caller's goroutine", c.n, c.workers)
			}
			return body
		})
	}
}
