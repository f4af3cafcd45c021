package engine

import (
	"errors"
	"fmt"
	"runtime"

	"laqy/internal/par"
)

// panicError converts a value recovered from a panic into an error
// carrying the panic message and the panicking goroutine's stack. The
// exchange merge recovers through it, and par.Claim's drivers through
// claimError, so that one poisoned chunk — a bug in an expression kernel,
// a corrupt column, an out-of-range dictionary code — fails one query with
// a diagnosable error instead of killing the whole process. Deliberately a
// separate, cold function: the hot pipeline only pays for it after a panic
// has already ended the fast path.
func panicError(where string, r any) error {
	buf := make([]byte, 64<<10)
	n := runtime.Stack(buf, false)
	return fmt.Errorf("engine: panic in %s: %v\n%s", where, r, buf[:n])
}

// claimError names where a par.Claim run failed, when a panic failed it:
// the error keeps the panicking goroutine's stack (par.Panic).
func claimError(where string, err error) error {
	if errors.As(err, new(*par.Panic)) {
		return fmt.Errorf("engine: panic in %s: %w", where, err)
	}
	return err
}
