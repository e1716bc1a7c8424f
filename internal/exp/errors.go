package exp

// Failure containment for the experiment scheduler. A sweep is hundreds of
// independent replay cells; one panicking or failing cell must not take the
// rest of a multi-figure run with it. Every cell runs under attempt(), which
// converts panics into structured errors, retries transient failures with
// backoff, and hands terminal failures back as *CellError values that the
// sweep aggregates into a *PartialError — the caller still gets every
// healthy column, with the failed ones marked.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"strings"
	"time"
)

// CellError is one cell's terminal failure: which job, how it failed, how
// many times it was attempted, and — for panics — the captured stack.
type CellError struct {
	Label    string // job label, e.g. "mp3d RC-DS64"
	Index    int    // job index within the sweep (stable across worker counts)
	Attempts int    // how many times the cell was run before giving up
	Err      error  // the final underlying error (the panic value for panics)
	Stack    []byte // goroutine stack at panic time; nil for plain errors
}

func (e *CellError) Error() string {
	kind := ""
	if e.Stack != nil {
		kind = "panicked: "
	}
	return fmt.Sprintf("cell %q (job %d) failed after %d attempt(s): %s%v",
		e.Label, e.Index, e.Attempts, kind, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// PartialError reports a sweep that degraded gracefully: some cells failed
// terminally, the rest completed and their results are returned alongside
// this error. Failures are ordered by job index, so the message is
// byte-identical at any worker count.
type PartialError struct {
	Total int          // cells attempted
	Cells []*CellError // terminal failures, ordered by index
}

func (e *PartialError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "exp: %d of %d cells failed (results are partial)", len(e.Cells), e.Total)
	for _, c := range e.Cells {
		b.WriteString("\n  ")
		b.WriteString(c.Error())
	}
	return b.String()
}

// Unwrap exposes the individual cell errors to errors.Is / errors.As.
func (e *PartialError) Unwrap() []error {
	errs := make([]error, len(e.Cells))
	for i, c := range e.Cells {
		errs[i] = c
	}
	return errs
}

// FailedLabels returns the failed cells' labels, ordered by index — the
// list the run ledger records.
func (e *PartialError) FailedLabels() []string {
	labels := make([]string, len(e.Cells))
	for i, c := range e.Cells {
		labels[i] = c.Label
	}
	return labels
}

// permanentError marks a deterministic failure as not worth retrying (a
// cached trace-generation error: the single-flight cache would hand back
// the identical error without re-running anything).
type permanentError struct{ err error }

func (e *permanentError) Error() string   { return e.err.Error() }
func (e *permanentError) Unwrap() error   { return e.err }
func (e *permanentError) Permanent() bool { return true }

// isPermanent reports whether any error in the chain declares itself
// permanent (cpu.WatchdogError, tango.MachineError, cached generation
// failures). Context cancellation is likewise terminal: retrying a canceled
// cell only delays shutdown.
func isPermanent(err error) bool {
	var p interface{ Permanent() bool }
	if errors.As(err, &p) && p.Permanent() {
		return true
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// IsPermanent is the exported form of isPermanent, for callers outside the
// scheduler that must apply the same retry policy — the distributed worker
// classifies a replay failure before reporting it, so a distributed sweep
// retries only what a local attempt() would have retried.
func IsPermanent(err error) bool { return isPermanent(err) }

// DefaultRetryBackoff is the first-retry delay when Options.RetryBackoff is
// zero; it doubles on each subsequent attempt.
const DefaultRetryBackoff = 50 * time.Millisecond

// DefaultRetryMaxBackoff caps the doubling when Options.RetryMaxBackoff is
// zero: past the cap every further retry waits the same bounded time, so a
// high retry budget cannot grow into minute-long sleeps.
const DefaultRetryMaxBackoff = 2 * time.Second

// retryDelay returns the wait before retrying attempt a (1-based: the delay
// after the a-th failed attempt) of the cell labelled label: base doubling
// per attempt, capped at max, with half the capped delay replaced by a
// jitter hashed from (label, attempt). The jitter decorrelates cells that
// fail together — a coordinator requeueing a whole dead worker's cells must
// not have them all retry in lockstep — while staying a pure function of
// its arguments, so retry schedules are reproducible in tests and the delay
// never exceeds max. base <= 0 selects DefaultRetryBackoff, max <= 0
// DefaultRetryMaxBackoff.
func retryDelay(label string, a int, base, max time.Duration) time.Duration {
	if base <= 0 {
		base = DefaultRetryBackoff
	}
	if max <= 0 {
		max = DefaultRetryMaxBackoff
	}
	if base > max {
		base = max
	}
	d := base
	for i := 1; i < a && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// Equal jitter: keep half the exponential delay, hash the other half, so
	// the wait stays within [d/2, d] and under the cap.
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", label, a)
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(h.Sum64()%uint64(half)+1)
}

// attempt runs one cell's work with panic isolation and retry: a panic is
// recovered into a *CellError with its stack, transient errors are retried
// up to Options.Retries extra times with capped, jittered doubling backoff
// (see retryDelay), and permanent errors (watchdog kills, cancellation,
// cached generation failures) stop immediately. It returns nil on success.
func (o *Options) attempt(label string, index int, fn func() error) *CellError {
	sleep := o.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	var last *CellError
	for a := 1; a <= o.Retries+1; a++ {
		err, stack := protect(fn)
		if err == nil {
			return nil
		}
		last = &CellError{Label: label, Index: index, Attempts: a, Err: err, Stack: stack}
		if isPermanent(err) || ctxDone(o.Ctx) != nil {
			break
		}
		if a <= o.Retries {
			sleep(retryDelay(label, a, o.RetryBackoff, o.RetryMaxBackoff))
		}
	}
	return last
}

// protect invokes fn, converting a panic into an error plus the stack.
func protect(fn func() error) (err error, stack []byte) {
	defer func() {
		if r := recover(); r != nil {
			stack = debug.Stack()
			if e, ok := r.(error); ok {
				err = e
			} else {
				err = fmt.Errorf("panic: %v", r)
			}
		}
	}()
	return fn(), nil
}

// ctxDone polls ctx without blocking; nil ctx never cancels.
func ctxDone(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}
