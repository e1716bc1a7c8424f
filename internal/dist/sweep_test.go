package dist

// The distributed sweep is exp's one sweep loop with the coordinator's
// Replay hook, so the retry budget, backoff, result cache, cache
// verification and job board it applies are exp's. These tests drive them
// through the hook: either a fake worker answering claims straight off the
// queue, or real workers over HTTP.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dynsched/internal/cache"
	"dynsched/internal/cpu"
	"dynsched/internal/exp"
	"dynsched/internal/faultinject"
	"dynsched/internal/obs"
)

type sweepOut struct {
	acs []exp.AppColumns
	err error
}

// startSweep runs a distributed sweep of specs over mp3d in the background.
func startSweep(opts exp.Options, specs []exp.CellSpec, co *Coordinator) <-chan sweepOut {
	out := make(chan sweepOut, 1)
	go func() {
		acs, err := exp.New(opts).Sweep(specs, co.Replay)
		out <- sweepOut{acs, err}
	}()
	return out
}

// claimNext claims the next attempt off co's queue, failing the test if
// none arrives before ctx ends.
func claimNext(t *testing.T, ctx context.Context, co *Coordinator) *jobAssignment {
	t.Helper()
	for ctx.Err() == nil {
		if resp := co.q.claim(ctx, "fake"); resp.Job != nil {
			return resp.Job
		}
	}
	t.Fatal("no attempt to claim")
	return nil
}

// okResult answers job with fixed numbers under a valid checksum.
func okResult(job *jobAssignment) resultRequest {
	b := cpu.Breakdown{Busy: 100, Read: 20}
	return resultRequest{Worker: "fake", ID: job.ID, Breakdown: b, Instructions: 100, Check: resultCheck(job.ID, b, 100)}
}

// fakeWorker answers every claimed attempt with answer until the sweep
// finishes, then returns the attempts it claimed, in claim order.
func fakeWorker(ctx context.Context, co *Coordinator, answer func(*jobAssignment) resultRequest) <-chan []jobAssignment {
	out := make(chan []jobAssignment, 1)
	go func() {
		var jobs []jobAssignment
		for ctx.Err() == nil {
			resp := co.q.claim(ctx, "fake")
			if resp.Done {
				break
			}
			if resp.Job != nil {
				jobs = append(jobs, *resp.Job)
				co.q.result(answer(resp.Job))
			}
		}
		out <- jobs
	}()
	return out
}

func TestSweepRetryBudgetDegradesToCellError(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	co := New(Config{Lease: time.Second})
	var sleeps []time.Duration
	opts := smallOpts("mp3d")
	opts.Ctx, opts.Retries = ctx, 1 // attempts budget: 2
	opts.Sleep = func(d time.Duration) { sleeps = append(sleeps, d) }
	res := startSweep(opts, exp.Figure3Specs()[:1], co)
	claimed := fakeWorker(ctx, co, func(job *jobAssignment) resultRequest {
		return resultRequest{Worker: "fake", ID: job.ID, Error: "boom"}
	})
	r := <-res
	co.q.finish()
	jobs := <-claimed

	var pe *exp.PartialError
	if !errors.As(r.err, &pe) || len(pe.Cells) != 1 {
		t.Fatalf("err = %v, want a *PartialError with one cell", r.err)
	}
	if ce := pe.Cells[0]; ce.Attempts != 2 || ce.Index != 0 || ce.Label != "mp3d BASE" || ce.Err.Error() != "boom" {
		t.Fatalf("CellError = %+v, want the worker's error after 2 attempts at index 0", ce)
	}
	if len(jobs) != 2 || len(sleeps) != 1 || sleeps[0] <= 0 {
		t.Fatalf("%d leases and backoff waits %v, want 2 leases with one wait between them", len(jobs), sleeps)
	}
	if !r.acs[0].Cols[0].Failed {
		t.Fatal("exhausted cell not marked failed")
	}
}

func TestSweepPermanentWorkerErrorSkipsRetries(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	co := New(Config{Lease: time.Second})
	opts := smallOpts("mp3d")
	opts.Ctx, opts.Retries = ctx, 5
	res := startSweep(opts, exp.Figure3Specs()[:1], co)
	claimed := fakeWorker(ctx, co, func(job *jobAssignment) resultRequest {
		return resultRequest{Worker: "fake", ID: job.ID, Error: "bad spec", Permanent: true}
	})
	r := <-res
	co.q.finish()
	jobs := <-claimed
	var pe *exp.PartialError
	if !errors.As(r.err, &pe) || len(pe.Cells) != 1 || pe.Cells[0].Attempts != 1 {
		t.Fatalf("err = %v, want one CellError after 1 attempt", r.err)
	}
	if len(jobs) != 1 {
		t.Fatalf("%d leases, want 1: a permanent failure must not be retried", len(jobs))
	}
}

// A failed cell waits out its backoff without holding up other cells:
// while its retry sleeps, the next cell is leased and answered.
func TestSweepRetryBackoffDoesNotBlockOtherCells(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	co := New(Config{Lease: time.Second})
	sleeping := make(chan time.Duration)
	release := make(chan struct{})
	opts := smallOpts("mp3d")
	opts.Ctx, opts.Retries = ctx, 1
	opts.Sleep = func(d time.Duration) {
		sleeping <- d
		<-release
	}
	res := startSweep(opts, exp.Figure3Specs()[:2], co)

	failed := claimNext(t, ctx, co)
	co.q.result(resultRequest{Worker: "fake", ID: failed.ID, Error: "transient"})
	if d := <-sleeping; d <= 0 {
		t.Fatalf("backoff wait %v, want > 0", d)
	}
	other := claimNext(t, ctx, co)
	if other.ID == failed.ID {
		t.Fatalf("claim during backoff = cell %d, want the other cell", other.ID)
	}
	co.q.result(okResult(other))
	close(release)
	retry := claimNext(t, ctx, co)
	if retry.ID != failed.ID {
		t.Fatalf("claim after backoff = cell %d, want the retried cell %d", retry.ID, failed.ID)
	}
	co.q.result(okResult(retry))
	if r := <-res; r.err != nil {
		t.Fatalf("sweep: %v", r.err)
	}
}

// cachedCellSweep runs a distributed sweep of three mp3d cells with the
// middle one already in the result cache, answering every lease with
// okResult. It returns the sweep's columns, the attempts leased to the
// worker, the job board and the cached numbers.
func cachedCellSweep(t *testing.T) ([]exp.AppColumns, []jobAssignment, *obs.JobBoard, []exp.CellSpec, cpu.Breakdown) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	store, err := cache.Open(t.TempDir(), cache.Options{Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	specs := exp.Figure3Specs()[:3]
	opts := smallOpts("mp3d")
	opts.Ctx, opts.Cache = ctx, store
	run, err := exp.New(opts).Run("mp3d")
	if err != nil {
		t.Fatal(err)
	}
	cached := cpu.Breakdown{Busy: 10, Read: 20}
	exp.CellCachePut(store, run.ContentAddr(), specs[1], cached, 42)

	board := obs.NewJobBoard()
	opts.Board = board
	co := New(Config{Lease: time.Second})
	res := startSweep(opts, specs, co)
	claimed := fakeWorker(ctx, co, okResult)
	r := <-res
	co.q.finish()
	jobs := <-claimed
	if r.err != nil {
		t.Fatalf("sweep: %v", r.err)
	}
	return r.acs, jobs, board, specs, cached
}

// A cell already in the result cache is satisfied without a lease: workers
// only see the other cells, and the cached numbers fill its column.
func TestQueueSatisfyServesCachedCells(t *testing.T) {
	acs, jobs, _, _, cached := cachedCellSweep(t)
	if len(jobs) != 2 {
		t.Fatalf("%d leases, want 2", len(jobs))
	}
	for _, j := range jobs {
		if j.ID == 1 {
			t.Fatal("cached cell leased to a worker")
		}
	}
	if col := acs[0].Cols[1]; col.Breakdown != cached || col.Instructions != 42 {
		t.Fatalf("cached column = %+v/%d, want the cached numbers", col.Breakdown, col.Instructions)
	}
}

// The job board reports a cache-satisfied cell as cached and the leased
// ones as done.
func TestQueueSatisfyReportsCachedOnBoard(t *testing.T) {
	_, _, board, specs, _ := cachedCellSweep(t)
	states := map[string]string{}
	counts := map[string]int{}
	for _, j := range board.Status().Jobs {
		if strings.HasPrefix(j.Label, "mp3d ") { // cell jobs, not the generation job
			states[j.Label] = j.State
			counts[j.State]++
		}
	}
	if counts[obs.JobCached] != 1 || counts[obs.JobDone] != 2 {
		t.Fatalf("cell jobs cached/done = %d/%d, want 1/2", counts[obs.JobCached], counts[obs.JobDone])
	}
	if states["mp3d "+specs[1].Label] != obs.JobCached || states["mp3d "+specs[0].Label] != obs.JobDone {
		t.Fatalf("board states = %v, want the cached cell cached and the leased ones done", states)
	}
}

// -cache-verify applies under a coordinator: with every hit recomputed by
// a worker, a poisoned cached cell fails with the divergence error the
// local sweep reports, and every other cell equals the local sweep's.
func TestSweepCacheVerifyUnderCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed sweep is seconds long")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	dir := t.TempDir()
	specs, _ := exp.SweepSpecs("fig3")
	fill, err := cache.Open(dir, cache.Options{Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOpts("lu")
	opts.Cache = fill
	e := exp.New(opts)
	if _, err := e.Figure3All(); err != nil {
		t.Fatal(err)
	}
	run, err := e.Run("lu")
	if err != nil {
		t.Fatal(err)
	}
	exp.CellCachePut(fill, run.ContentAddr(), specs[1], cpu.Breakdown{Busy: 1}, 1)

	// verified runs fig3 against a fresh handle on the poisoned store with
	// every hit recomputed, locally (replay nil) or through a coordinator.
	verified := func(replay exp.Replay) ([]exp.AppColumns, error) {
		store, err := cache.Open(dir, cache.Options{Version: "test"})
		if err != nil {
			t.Fatal(err)
		}
		opts := smallOpts("lu")
		opts.Ctx, opts.Cache, opts.CacheVerify = ctx, store, 1
		return exp.New(opts).Sweep(specs, replay)
	}
	want, wantErr := verified(nil)

	co := New(Config{Lease: 2 * time.Second})
	srv, err := StartServer("127.0.0.1:0", co)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	w, err := NewWorker(WorkerConfig{ID: "verifier", Coordinator: "http://" + srv.Addr})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := w.Run(ctx); err != nil {
			t.Errorf("worker: %v", err)
		}
	}()
	got, err := verified(co.Replay)
	srv.Shutdown(ctx) // tells the worker the sweep is done
	wg.Wait()

	var pe *exp.PartialError
	if !errors.As(err, &pe) || len(pe.Cells) != 1 {
		t.Fatalf("err = %v, want one failed cell", err)
	}
	if ce := pe.Cells[0]; ce.Index != 1 || !strings.Contains(ce.Error(), "cache verification divergence") {
		t.Fatalf("failed cell = %v, want the divergence at index 1", ce)
	}
	if wantErr == nil || err.Error() != wantErr.Error() {
		t.Fatalf("distributed error\n%v\nwant the local sweep's\n%v", err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("distributed columns differ from the local verified sweep")
	}
}

// Remote attempts do not occupy the -j pool: at Workers 1, two workers
// hold leases at the same time.
func TestSweepLeasesBeyondGenerationPool(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed sweep is seconds long")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	co := New(Config{Lease: 2 * time.Second})
	srv, err := StartServer("127.0.0.1:0", co)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for _, id := range []string{"w1", "w2", "w3"} {
		faults := faultinject.New()
		faults.Arm("worker.replay", faultinject.Fault{Kind: faultinject.KindSlow, Times: 3, Delay: 100 * time.Millisecond})
		w, err := NewWorker(WorkerConfig{ID: id, Coordinator: "http://" + srv.Addr, Faults: faults})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := w.Run(ctx); err != nil {
				t.Errorf("worker %s: %v", w.ID(), err)
			}
		}()
	}
	maxLeased := 0
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if _, leased, _, _ := co.q.counts(); leased > maxLeased {
				maxLeased = leased
			}
		}
	}()
	opts := smallOpts("mp3d")
	opts.Ctx, opts.Workers = ctx, 1
	specs, _ := exp.SweepSpecs("fig3")
	_, err = exp.New(opts).Sweep(specs, co.Replay)
	close(stop)
	<-polled
	srv.Shutdown(ctx)
	wg.Wait()
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if maxLeased < 2 {
		t.Fatalf("at most %d lease(s) held at once, want >= 2 with three workers at -j 1", maxLeased)
	}
}
