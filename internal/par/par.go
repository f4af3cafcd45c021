// Package par is the one work-claiming fan-out of the engine's parallel
// loops — the morsel scan, the segment builds of a segmented sample, and
// the per-stratum chunks of merges and estimates: participants claim item
// indices from one counter, each with a body of its own (§6.3's per-thread
// partial state), and the caller folds their results after the wait.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Claim runs body(i) once for every claimed i in [0, n). The caller and up
// to min(workers, n, GOMAXPROCS)−1 helper goroutines claim indices from one
// atomic counter, so a helper that starts late (a go statement takes tens
// of microseconds to run on a busy machine) takes what is left, and one
// that finds nothing left ends at once. The caller's own loop ends only
// once every index is claimed, so it then waits for claimed items, never
// for a helper to start.
//
// worker is called once per participant, on its own goroutine at its first
// claim, with the participant's number p: numbers are dense, 0 to ran−1, in
// the order of first claims, so a helper that claims nothing makes no body
// and takes no number, and per-participant state indexed by p covers
// exactly the participants that ran. Scratch worker makes is the
// participant's alone.
//
// The first error a body returns, or a panic of a body or of worker
// (returned as a *Panic, with the stack of the goroutine that panicked),
// stops the run: items claimed later end without running. Claim returns it
// once every claimed item has ended. With one participant or one item
// everything runs inline on the caller, in index order, with no goroutine
// and no allocation of the driver's.
func Claim(n, workers int, worker func(p int) func(i int) error) (ran int, err error) {
	workers = min(workers, n, runtime.GOMAXPROCS(0))
	if workers <= 1 {
		return inline(n, worker)
	}
	c := &claim{n: int64(n), worker: worker}
	c.pending.Add(n)
	for range workers - 1 {
		go c.run()
	}
	// A go statement leaves the new goroutine in the caller's runnext
	// slot, which an idle P steals only after backing off (tens of
	// microseconds on Linux). Yielding once runs the last helper on the
	// caller's P at once and lets an idle P take the caller instead.
	runtime.Gosched()
	c.run()
	c.pending.Wait()
	if f := c.failed.Load(); f != nil {
		return int(c.ran.Load()), f.err
	}
	return int(c.ran.Load()), nil
}

// inline is Claim's one-participant form.
func inline(n int, worker func(p int) func(i int) error) (ran int, err error) {
	if n <= 0 {
		return 0, nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = newPanic(r)
		}
	}()
	ran = 1
	body := worker(0)
	for i := range n {
		if err := body(i); err != nil {
			return ran, err
		}
	}
	return ran, nil
}

// claim is the shared state of one parallel Claim.
type claim struct {
	n       int64
	worker  func(p int) func(i int) error
	next    atomic.Int64   // the next index to claim
	ran     atomic.Int64   // participants numbered so far
	pending sync.WaitGroup // items not yet ended, claimed or not
	// failed holds the first error; once set, claimed items end without
	// running.
	failed atomic.Pointer[failure]
}

type failure struct{ err error }

// run claims and runs items until none is left.
func (c *claim) run() {
	var body func(i int) error
	for {
		i := c.next.Add(1) - 1
		if i >= c.n {
			return
		}
		c.do(&body, int(i))
	}
}

// do runs item i with *body, making the body first if it is nil, and ends
// the item, recording its error or recovering its panic.
func (c *claim) do(body *func(i int) error, i int) {
	defer c.pending.Done()
	defer func() {
		if r := recover(); r != nil {
			c.failed.CompareAndSwap(nil, &failure{newPanic(r)})
		}
	}()
	if c.failed.Load() != nil {
		return
	}
	if *body == nil {
		*body = c.worker(int(c.ran.Add(1) - 1))
	}
	if err := (*body)(i); err != nil {
		c.failed.CompareAndSwap(nil, &failure{err})
	}
}

// Panic is the error Claim returns for a panic of a participant: the value
// recovered and the stack of the goroutine that panicked.
type Panic struct {
	Value any
	Stack []byte
}

func newPanic(r any) *Panic { return &Panic{Value: r, Stack: debug.Stack()} }

// Error formats the value with its stack, so a caller that reports the
// panic as an error keeps where it happened.
func (p *Panic) Error() string {
	return fmt.Sprintf("%v\n\ngoroutine stack:\n%s", p.Value, p.Stack)
}
