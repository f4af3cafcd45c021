package sample

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// chunkTuples is the number of stored tuples (strata × capacity k) one
// chunk of a per-stratum walk covers. On a 2-vCPU VM a helper goroutine
// takes ~60 µs from its go statement to its first instruction when the
// other core is idle, and longer when it is not; merges cost ~15 ns and
// estimates ~8 ns per stored tuple, so a chunk is 130–250 µs of work and a
// helper that starts in time can take every other chunk of a Q1-shaped
// walk (~2.4 k strata of k = 32: five chunks of 512 strata). A Q2-shaped
// hit (~280 strata of k = 32) is one chunk and runs inline.
const chunkTuples = 1 << 14

// chunkStrata is the number of strata per chunk of a walk over strata of
// capacity k.
func chunkStrata(k int) int {
	return max(chunkTuples/max(k, 1), 1)
}

// forChunks walks [0, n) in chunks of size consecutive indices. The caller
// and up to workers−1 helper goroutines (no more than GOMAXPROCS allows to
// run at once) claim chunks from one atomic counter, so a helper that starts
// late takes what is left, and one that finds nothing left ends at once.
// The caller's own loop ends only once every chunk is claimed, so it then
// waits for claimed chunks, never for a helper to start. A walk of one
// chunk, or with one worker, runs inline on the caller, with no goroutine
// and no allocation of the driver's.
//
// worker is called once per participant, on its own goroutine and before
// its first chunk, and returns that participant's chunk body: scratch it
// allocates there is the participant's alone.
//
// After a panic in any chunk, chunks claimed later end without running;
// once every claimed chunk has ended, the first panic is raised again on the caller's
// goroutine, carrying the stack of the goroutine that panicked — so a
// caller that recovers (the engine's exchange merge turns a panic into the
// query's error) recovers helper panics too.
func forChunks(n, size, workers int, worker func() func(lo, hi int)) {
	chunks := (n + size - 1) / size
	workers = min(workers, chunks, runtime.GOMAXPROCS(0))
	if workers <= 1 {
		if n > 0 {
			worker()(0, n)
		}
		return
	}
	w := &chunkWalk{n: n, size: size, chunks: int64(chunks), worker: worker}
	w.pending.Add(chunks)
	for range workers - 1 {
		go w.run()
	}
	w.run()
	w.pending.Wait()
	if p := w.panicked.Load(); p != nil {
		// invariant: re-raises a panic of a chunk body, which only a bug
		// in this repository can cause; see forChunks.
		panic(p)
	}
}

// chunkWalk is the shared state of one parallel forChunks walk.
type chunkWalk struct {
	n, size int
	chunks  int64
	worker  func() func(lo, hi int)
	next    atomic.Int64   // the next chunk to claim
	pending sync.WaitGroup // chunks not yet ended, claimed or not
	// panicked holds the first chunk panic; once set, claimed chunks end
	// without running.
	panicked atomic.Pointer[chunkPanic]
}

// run claims and walks chunks until none is left. The participant's body
// is made on its first claim, so a helper that claims nothing allocates
// nothing.
func (w *chunkWalk) run() {
	var body func(lo, hi int)
	for {
		c := w.next.Add(1) - 1
		if c >= w.chunks {
			return
		}
		w.do(&body, int(c))
	}
}

// do walks chunk c with *body, making the body first if it is nil, and
// ends the chunk, recovering a panic of either.
func (w *chunkWalk) do(body *func(lo, hi int), c int) {
	defer w.pending.Done()
	defer func() {
		if r := recover(); r != nil {
			w.panicked.CompareAndSwap(nil, &chunkPanic{value: r, stack: debug.Stack()})
		}
	}()
	if w.panicked.Load() != nil {
		return
	}
	if *body == nil {
		*body = w.worker()
	}
	lo := c * w.size
	(*body)(lo, min(lo+w.size, w.n))
}

// chunkPanic is the value a parallel per-stratum walk panics with when one
// of its chunks panicked: the original panic value and the stack of the
// goroutine it happened on.
type chunkPanic struct {
	value any
	stack []byte
}

// Error formats the original value with its stack, so a recovering caller
// that reports the panic as an error keeps where it happened.
func (p *chunkPanic) Error() string {
	return fmt.Sprintf("%v\n\nchunk goroutine stack:\n%s", p.value, p.stack)
}
