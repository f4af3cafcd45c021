package sample

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"laqy/internal/par"
)

// goid returns the calling goroutine's id, read off its stack header.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// atLeastProcs raises GOMAXPROCS to n for the rest of the test: forChunks
// (par.Claim) starts no more helpers than GOMAXPROCS can run.
func atLeastProcs(t *testing.T, n int) {
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// TestForChunksVisitsEachIndexOnce: every index of [0, n) is in exactly one
// chunk of at most size indices, whatever the number of chunks and of
// workers, and a walk of one chunk or one worker is one body on the caller,
// called once per chunk.
func TestForChunksVisitsEachIndexOnce(t *testing.T) {
	atLeastProcs(t, 8)
	const size = 7
	for _, n := range []int{0, 1, size - 1, size, 10*size + 3} {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				inline := n <= size || workers == 1
				visits := make([]atomic.Int32, n)
				var calls, bodies atomic.Int32
				caller, onCaller := goid(), true
				var mu sync.Mutex
				forChunks(n, size, workers, func(int) func(c int) error {
					bodies.Add(1)
					return func(c int) error {
						calls.Add(1)
						lo, hi := chunkBounds(c, size, n)
						if hi-lo > size || lo >= hi {
							t.Errorf("chunk [%d, %d) with size %d", lo, hi, size)
						}
						if goid() != caller {
							mu.Lock()
							onCaller = false
							mu.Unlock()
						}
						for i := lo; i < hi; i++ {
							visits[i].Add(1)
						}
						return nil
					}
				})
				for i := range visits {
					if v := visits[i].Load(); v != 1 {
						t.Errorf("index %d visited %d times", i, v)
					}
				}
				if inline {
					want, chunks := int32(min(n, 1)), int32((n+size-1)/size)
					if calls.Load() != chunks || bodies.Load() != want || !onCaller {
						t.Errorf("inline walk: %d bodies, %d calls, on caller %v; want %d, %d, true",
							bodies.Load(), calls.Load(), onCaller, want, chunks)
					}
				}
				if int(bodies.Load()) > workers {
					t.Errorf("%d bodies for %d workers", bodies.Load(), workers)
				}
			})
		}
	}
}

// TestForChunksHelperPanicReachesCaller: a panic in a chunk a helper
// goroutine runs does not kill the process; it is raised again on the
// caller's goroutine once the claimed chunks have ended, as a *par.Panic
// carrying the original value and the helper's stack.
func TestForChunksHelperPanicReachesCaller(t *testing.T) {
	atLeastProcs(t, 2)
	const size, chunks = 4, 6
	caller := goid()
	helperRan := make(chan struct{})
	var once sync.Once
	var raised any
	func() {
		defer func() { raised = recover() }()
		forChunks(size*chunks, size, 2, func(int) func(int) error {
			onHelper := goid() != caller
			return func(int) error {
				if onHelper {
					once.Do(func() { close(helperRan) })
					panic("poisoned chunk")
				}
				select {
				case <-helperRan:
				case <-time.After(10 * time.Second):
				}
				return nil
			}
		})
	}()
	p, ok := raised.(*par.Panic)
	if !ok {
		t.Fatalf("forChunks raised %v (%T), want the helper's panic as a *par.Panic", raised, raised)
	}
	if p.Value != "poisoned chunk" || !strings.Contains(p.Error(), "poisoned chunk") || len(p.Stack) == 0 {
		t.Fatalf("par.Panic{%v, %d stack bytes}, want the helper's value and stack", p.Value, len(p.Stack))
	}
}

// TestForChunksCallerPanicWaitsForHelpers: a panic in the caller's own
// chunk is raised once the helpers' claimed chunks have ended, so no chunk
// body outlives the walk.
func TestForChunksCallerPanicWaitsForHelpers(t *testing.T) {
	atLeastProcs(t, 2)
	caller := goid()
	var running atomic.Int32
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("the caller's panic was swallowed")
			}
			if n := running.Load(); n != 0 {
				t.Fatalf("forChunks raised with %d chunk bodies still running", n)
			}
		}()
		forChunks(64, 1, 2, func(int) func(int) error {
			onCaller := goid() == caller
			return func(int) error {
				running.Add(1)
				defer running.Add(-1)
				if onCaller {
					panic("caller chunk")
				}
				time.Sleep(time.Millisecond)
				return nil
			}
		})
	}()
}
