package exp

// Tests for the scheduler's failure containment: deterministic lowest-index
// error selection (byte-identical failures at any worker count), graceful
// degradation to partial results, panic isolation, retry of transient
// faults, and cooperative cancellation. The fault-injection harness drives
// the failure paths deterministically; run with -race in CI.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dynsched/internal/apps"
	"dynsched/internal/faultinject"
	"dynsched/internal/obs"
)

// TestRunJobsLowestIndexError pins the determinism fix: index 7 fails
// instantly, index 3 fails only after a delay, so completion order favours
// 7 — but the caller must always see index 3's error, exactly as serial
// execution would.
func TestRunJobsLowestIndexError(t *testing.T) {
	errSlow := errors.New("slow failure at 3")
	errFast := errors.New("fast failure at 7")
	for _, workers := range []int{1, 2, 4, 8} {
		err := runJobs(20, workers, func(i int) error {
			switch i {
			case 3:
				time.Sleep(20 * time.Millisecond)
				return errSlow
			case 7:
				return errFast
			}
			return nil
		})
		if !errors.Is(err, errSlow) {
			t.Fatalf("workers=%d: err = %v, want the lowest-index error %v", workers, err, errSlow)
		}
	}
}

// Every index below the returned failure must have actually run — the
// lowest-index guarantee is about matching serial semantics, not just
// picking a smaller number.
func TestRunJobsRunsEverythingBelowFailure(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{2, 8} {
		const n, failAt = 64, 40
		ran := make([]bool, n)
		var mu sync.Mutex
		err := runJobs(n, workers, func(i int) error {
			mu.Lock()
			ran[i] = true
			mu.Unlock()
			if i == failAt {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		for i := 0; i < failAt; i++ {
			if !ran[i] {
				t.Fatalf("workers=%d: index %d below the failure never ran", workers, i)
			}
		}
	}
}

func TestAttemptRetriesTransientThenSucceeds(t *testing.T) {
	o := &Options{Retries: 2, RetryBackoff: time.Millisecond}
	calls := 0
	cerr := o.attempt("flaky", 0, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if cerr != nil || calls != 3 {
		t.Fatalf("cerr = %v, calls = %d; want success on third attempt", cerr, calls)
	}
}

func TestAttemptCapturesPanicWithStack(t *testing.T) {
	o := &Options{Retries: 1, RetryBackoff: time.Millisecond}
	cerr := o.attempt("boom", 4, func() error { panic("cell exploded") })
	if cerr == nil {
		t.Fatal("panicking cell reported success")
	}
	if cerr.Stack == nil || !strings.Contains(string(cerr.Stack), "goroutine") {
		t.Errorf("panic stack not captured: %q", cerr.Stack)
	}
	if cerr.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (panics are retried)", cerr.Attempts)
	}
	if cerr.Index != 4 || cerr.Label != "boom" {
		t.Errorf("identity lost: %+v", cerr)
	}
	if !strings.Contains(cerr.Error(), "panicked") || !strings.Contains(cerr.Error(), "cell exploded") {
		t.Errorf("undiagnosable error text: %v", cerr)
	}
}

func TestAttemptDoesNotRetryPermanentErrors(t *testing.T) {
	o := &Options{Retries: 5, RetryBackoff: time.Millisecond}
	calls := 0
	cerr := o.attempt("dead", 0, func() error {
		calls++
		return &permanentError{errors.New("watchdog fired")}
	})
	if cerr == nil || calls != 1 {
		t.Fatalf("cerr = %v, calls = %d; permanent errors must fail on the first attempt", cerr, calls)
	}
}

func TestAttemptStopsOnCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := &Options{Retries: 10, RetryBackoff: time.Hour, Ctx: ctx}
	calls := 0
	cerr := o.attempt("canceled", 0, func() error { calls++; return errors.New("transient") })
	if cerr == nil || calls != 1 {
		t.Fatalf("cerr = %v, calls = %d; cancellation must stop the retry loop", cerr, calls)
	}
}

// TestPanickingCellDegradesGracefully is the headline fault-injection check:
// one cell of Figure 3 panics on every attempt, the sweep still finishes,
// returns every other column, marks the failed one, and produces the exact
// same partial output at any worker count.
func TestPanickingCellDegradesGracefully(t *testing.T) {
	render := func(workers int) (string, string) {
		opts := DefaultOptions()
		opts.Scale = apps.ScaleSmall
		opts.Apps = []string{"mp3d"}
		opts.Workers = workers
		opts.Retries = 1
		opts.RetryBackoff = time.Millisecond
		opts.Faults = faultinject.New()
		opts.Faults.Arm("cell.mp3d RC-DS64", faultinject.Fault{Kind: faultinject.KindPanic, Times: 99})
		e := New(opts)
		acs, err := e.Figure3All()
		var pe *PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PartialError", workers, err)
		}
		if len(pe.Cells) != 1 || pe.Cells[0].Label != "mp3d RC-DS64" {
			t.Fatalf("workers=%d: wrong failure set: %v", workers, pe.FailedLabels())
		}
		if pe.Cells[0].Attempts != 2 || pe.Cells[0].Stack == nil {
			t.Errorf("workers=%d: retry/stack bookkeeping off: attempts=%d stack=%v",
				workers, pe.Cells[0].Attempts, pe.Cells[0].Stack != nil)
		}
		healthy := 0
		for _, c := range acs[0].Cols {
			if !c.Failed && c.Breakdown.Total() > 0 {
				healthy++
			}
		}
		if healthy != len(acs[0].Cols)-1 {
			t.Fatalf("workers=%d: %d healthy columns, want %d", workers, healthy, len(acs[0].Cols)-1)
		}
		table := FormatAppColumns("fig3", acs)
		if !strings.Contains(table, "FAILED") {
			t.Errorf("workers=%d: failed cell not marked in the table:\n%s", workers, table)
		}
		return table, pe.Error()
	}
	serialTable, serialErr := render(1)
	parTable, parErr := render(8)
	if serialTable != parTable {
		t.Errorf("partial table differs between Workers=1 and Workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s", serialTable, parTable)
	}
	if serialErr != parErr {
		t.Errorf("partial error differs between worker counts:\n%s\nvs\n%s", serialErr, parErr)
	}
}

// A transient injected fault plus one retry must leave no trace in the
// results: the sweep succeeds completely.
func TestRetryRecoversTransientCellFault(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = apps.ScaleSmall
	opts.Apps = []string{"mp3d"}
	opts.Workers = 4
	opts.Retries = 1
	opts.RetryBackoff = time.Millisecond
	opts.Faults = faultinject.New()
	opts.Faults.Arm("cell.mp3d BASE", faultinject.Fault{Kind: faultinject.KindError})
	e := New(opts)
	acs, err := e.Figure3All()
	if err != nil {
		t.Fatalf("one transient fault with a retry budget broke the sweep: %v", err)
	}
	if opts.Faults.Fired("cell.mp3d BASE") != 1 {
		t.Fatalf("fault fired %d times, want 1", opts.Faults.Fired("cell.mp3d BASE"))
	}
	for _, c := range acs[0].Cols {
		if c.Failed || c.Breakdown.Total() == 0 {
			t.Fatalf("column %q incomplete after recovery", c.Label)
		}
	}
}

// A failed trace generation fails that application's cells and nothing else.
func TestGenerationFailureIsolatedPerApp(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = apps.ScaleSmall
	opts.Apps = []string{"mp3d", "ocean"}
	opts.Workers = 4
	opts.Faults = faultinject.New()
	opts.Faults.Arm("gen.mp3d", faultinject.Fault{Kind: faultinject.KindError})
	e := New(opts)
	acs, err := e.WindowSweepAll()
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	if len(pe.Cells) != 1 || pe.Cells[0].Label != "mp3d (trace generation)" {
		t.Fatalf("wrong failure set: %v", pe.FailedLabels())
	}
	for _, c := range acs[0].Cols { // mp3d
		if !c.Failed {
			t.Fatalf("mp3d column %q not marked failed after its generation failed", c.Label)
		}
	}
	for _, c := range acs[1].Cols { // ocean
		if c.Failed || c.Breakdown.Total() == 0 {
			t.Fatalf("ocean column %q collateral-damaged by mp3d's generation failure", c.Label)
		}
	}
	if csv := ColumnsCSV(acs); strings.Contains(csv, "mp3d") || !strings.Contains(csv, "ocean") {
		t.Errorf("CSV must omit failed cells and keep healthy ones:\n%s", csv)
	}
}

// Cancellation aborts the sweep outright — no partial results, a context
// error — and a pre-canceled harness never starts simulating.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.Scale = apps.ScaleSmall
	opts.Apps = []string{"mp3d"}
	opts.Ctx = ctx
	e := New(opts)
	acs, err := e.Figure3All()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if acs != nil {
		t.Fatalf("canceled sweep returned results: %v", acs)
	}
}

// A panic during trace generation must not poison the single-flight cache:
// later callers get the captured error, not (nil, nil).
func TestGenerationPanicDoesNotPoisonCache(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = apps.ScaleSmall
	opts.Apps = []string{"mp3d"}
	opts.Faults = faultinject.New()
	opts.Faults.Arm("gen.mp3d", faultinject.Fault{Kind: faultinject.KindPanic, Times: 99})
	e := New(opts)
	for i := 0; i < 2; i++ {
		run, err := e.Run("mp3d")
		if run != nil || err == nil {
			t.Fatalf("call %d: run=%v err=%v, want (nil, error)", i, run, err)
		}
		if !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("call %d: panic origin lost: %v", i, err)
		}
		if !isPermanent(err) {
			t.Fatalf("call %d: cached generation failure must be permanent", i)
		}
	}
}

// TestRetryScheduleJitterAndCap pins the retry-backoff contract: the waits
// double from RetryBackoff, never exceed RetryMaxBackoff, carry a
// deterministic per-(label, attempt) jitter in the upper half of the
// exponential delay, and are observable through the injectable sleeper — a
// second identical run records the identical schedule.
func TestRetryScheduleJitterAndCap(t *testing.T) {
	const label = "mp3d RC-DS64"
	base, max := 10*time.Millisecond, 80*time.Millisecond
	record := func(label string) []time.Duration {
		var sleeps []time.Duration
		o := &Options{
			Retries: 6, RetryBackoff: base, RetryMaxBackoff: max,
			Sleep: func(d time.Duration) { sleeps = append(sleeps, d) },
		}
		ce := o.attempt(label, 0, func() error { return errors.New("transient") })
		if ce == nil || ce.Attempts != 7 {
			t.Fatalf("attempt result = %+v, want terminal failure after 7 attempts", ce)
		}
		return sleeps
	}
	sleeps := record(label)
	if len(sleeps) != 6 {
		t.Fatalf("recorded %d sleeps, want 6", len(sleeps))
	}
	for i, d := range sleeps {
		a := i + 1
		if want := retryDelay(label, a, base, max); d != want {
			t.Errorf("attempt %d slept %v, want retryDelay = %v", a, d, want)
		}
		exp := base << i
		if exp > max {
			exp = max
		}
		if d <= exp/2 || d > exp {
			t.Errorf("attempt %d slept %v, want within (%v, %v]", a, d, exp/2, exp)
		}
	}
	// The capped tail still spreads: attempts 4-6 all hit the 80ms cap, but
	// their jittered waits must not be identical (lockstep retries are the
	// failure mode the jitter exists to break).
	if sleeps[3] == sleeps[4] && sleeps[4] == sleeps[5] {
		t.Errorf("capped retries slept in lockstep: %v", sleeps[3:])
	}
	// Reproducible: the schedule is a pure function of the label.
	again := record(label)
	for i := range sleeps {
		if sleeps[i] != again[i] {
			t.Fatalf("retry schedule not deterministic: %v vs %v", sleeps, again)
		}
	}
	// Decorrelated: a different cell label yields a different schedule.
	other := record("lu SC-SS")
	same := true
	for i := range sleeps {
		if sleeps[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Errorf("labels %q and %q share a retry schedule: %v", label, "lu SC-SS", sleeps)
	}
}

// containmentOpts runs mp3d and lu with mp3d's generation failing and lu's
// RC-DS64 cell of the named sweep panicking on every attempt.
func containmentOpts(sweep string, board *obs.JobBoard) Options {
	opts := DefaultOptions()
	opts.Scale = apps.ScaleSmall
	opts.Apps = []string{"mp3d", "lu"}
	opts.Workers = 3
	opts.Board = board
	opts.Faults = faultinject.New()
	opts.Faults.Arm("gen.mp3d", faultinject.Fault{Kind: faultinject.KindError})
	opts.Faults.Arm("cell.lu "+sweep+" RC-DS64", faultinject.Fault{Kind: faultinject.KindPanic, Times: 99})
	return opts
}

// checkContainment asserts the containment contract shared by the analyze
// and timeline sweeps: the failures are mp3d's generation (index 0) and lu's
// RC-DS64 cell (index 1*nc+5), exactly those slots are marked, and the
// board holds nothing queued or running.
func checkContainment(t *testing.T, err error, failed [][]bool, board *obs.JobBoard) {
	t.Helper()
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	nc := len(failed[0])
	var idx []int
	for _, ce := range pe.Cells {
		idx = append(idx, ce.Index)
	}
	if want := []int{0, 1*nc + 5}; !reflect.DeepEqual(idx, want) {
		t.Errorf("failure indices = %v (%v), want %v", idx, pe.FailedLabels(), want)
	}
	if pe.Total != 2*nc {
		t.Errorf("PartialError.Total = %d, want %d", pe.Total, 2*nc)
	}
	for a := range failed {
		for c, f := range failed[a] {
			if want := a == 0 || c == 5; f != want {
				t.Errorf("slot %d/%d failed = %t, want %t", a, c, f, want)
			}
		}
	}
	if st := board.Status(); st.Queued != 0 || st.Running != 0 || st.Failed != 2 {
		t.Errorf("board not drained: queued=%d running=%d failed=%d, want 0/0/2", st.Queued, st.Running, st.Failed)
	}
}

// TestAnalyzeContainment: a failed generation and a panicking cell degrade
// the analyze sweep to marked slots, and every healthy cell equals a clean
// run's.
func TestAnalyzeContainment(t *testing.T) {
	board := obs.NewJobBoard()
	rep, err := New(containmentOpts("analyze", board)).AnalyzeAll()
	if rep == nil {
		t.Fatalf("no partial report: %v", err)
	}
	failed := make([][]bool, len(rep.Apps))
	for a, app := range rep.Apps {
		for _, c := range app.Cells {
			failed[a] = append(failed[a], c.Failed)
		}
	}
	checkContainment(t, err, failed, board)
	clean, err := smallExp(t, "lu").AnalyzeAll()
	if err != nil {
		t.Fatal(err)
	}
	for c, want := range clean.Apps[0].Cells {
		if got := rep.Apps[1].Cells[c]; !got.Failed && !reflect.DeepEqual(got, want) {
			t.Errorf("lu %s differs from a clean run:\n got %+v\nwant %+v", want.Label, got, want)
		}
	}
}

// TestTimelineContainment is TestAnalyzeContainment for the timeline sweep.
func TestTimelineContainment(t *testing.T) {
	board := obs.NewJobBoard()
	rep, err := New(containmentOpts("timeline", board)).TimelineAll()
	if rep == nil {
		t.Fatalf("no partial report: %v", err)
	}
	failed := make([][]bool, len(rep.Apps))
	for a, app := range rep.Apps {
		for _, c := range app.Cells {
			failed[a] = append(failed[a], c.Failed)
		}
	}
	checkContainment(t, err, failed, board)
	clean, err := smallExp(t, "lu").TimelineAll()
	if err != nil {
		t.Fatal(err)
	}
	for c, want := range clean.Apps[0].Cells {
		if got := rep.Apps[1].Cells[c]; !got.Failed && !reflect.DeepEqual(got, want) {
			t.Errorf("lu %s differs from a clean run:\n got %+v\nwant %+v", want.Label, got, want)
		}
	}
}
