package dist

// The determinism-under-failure gate. A distributed Figure 3 sweep runs
// with faultinject-armed workers — one crashes after replaying a cell but
// before reporting it (its lease expires and the cell is reclaimed), one
// stumbles through a corrupted trace transfer and a failed fetch, one is
// artificially slowed — and the merged columns plus the metrics-registry
// FNV must come out byte-identical to the single-process scheduler's. The
// paper's numbers cannot depend on which machine computed them, or on what
// broke along the way.

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"dynsched/internal/apps"
	"dynsched/internal/cache"
	"dynsched/internal/exp"
	"dynsched/internal/faultinject"
	"dynsched/internal/obs"
)

func smallOpts(appNames ...string) exp.Options {
	opts := exp.DefaultOptions()
	opts.Scale = apps.ScaleSmall
	opts.Apps = appNames
	opts.Workers = 2
	return opts
}

// columnsFNV records cols under the step name the CLI uses and returns the
// registry checksum — the same value the run ledger stores as metrics_fnv.
func columnsFNV(figure string, acs []exp.AppColumns) string {
	reg := obs.NewRegistry()
	for _, ac := range acs {
		exp.RecordColumns(reg, figure, ac.App, ac.Cols)
	}
	return obs.SnapshotFNV(reg.Snapshot())
}

func TestChaosDistributedFigure3Determinism(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is seconds long")
	}
	appNames := []string{"mp3d", "ocean"}
	specs, ok := exp.SweepSpecs("fig3")
	if !ok {
		t.Fatal("fig3 specs missing")
	}

	// Reference: the in-process scheduler, two workers.
	want, err := exp.New(smallOpts(appNames...)).Figure3All()
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	wantFNV := columnsFNV("fig3", want)

	// Distributed run under an adversarial failure schedule.
	coFaults := faultinject.New()
	// The first trace transfer is corrupted in flight; checksum verification
	// must turn it into a retried fetch.
	coFaults.Arm("dist.trace.serve", faultinject.Fault{Kind: faultinject.KindError, Times: 1})
	co := New(Config{Lease: 400 * time.Millisecond, Faults: coFaults})
	srv, err := StartServer("127.0.0.1:0", co)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	baseURL := "http://" + srv.Addr

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	// Worker 1 "crashes": after replaying its first cell it dies without
	// reporting, so the coordinator must expire the lease and reassign.
	crashFaults := faultinject.New()
	crashFaults.Arm("worker.post", faultinject.Fault{Kind: faultinject.KindError, Times: 1})
	w1, err := NewWorker(WorkerConfig{ID: "crasher", Coordinator: baseURL, Faults: crashFaults})
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := w1.Run(ctx); err == nil {
			t.Error("crashing worker returned nil, want the injected crash")
		}
	}()

	// Worker 2 survives a failed trace fetch and an artificial slowdown.
	slowFaults := faultinject.New()
	slowFaults.Arm("worker.fetch", faultinject.Fault{Kind: faultinject.KindError, Times: 1})
	slowFaults.Arm("worker.replay", faultinject.Fault{Kind: faultinject.KindSlow, Times: 2, Delay: 50 * time.Millisecond})
	w2, err := NewWorker(WorkerConfig{ID: "survivor", Coordinator: baseURL, Faults: slowFaults})
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Done from the coordinator or our own post-sweep cancel are both
		// clean exits.
		if _, err := w2.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("surviving worker: %v", err)
		}
	}()

	// A replacement worker joins late, as a restarted process would.
	w3, err := NewWorker(WorkerConfig{ID: "replacement", Coordinator: baseURL})
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(300 * time.Millisecond)
		if _, err := w3.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("replacement worker: %v", err)
		}
	}()

	opts := smallOpts(appNames...)
	opts.Retries, opts.RetryBackoff, opts.Ctx = 3, time.Millisecond, ctx
	got, err := exp.New(opts).Sweep(specs, co.Replay)
	cancel() // release any worker still polling
	wg.Wait()
	if err != nil {
		t.Fatalf("distributed sweep: %v", err)
	}

	// The contract: merged columns and the ledger checksum are byte-identical
	// to the single-process run, despite the kills, stalls, and corruption.
	if !reflect.DeepEqual(got, want) {
		t.Errorf("distributed columns differ from single-process reference")
		for a := range want {
			if !reflect.DeepEqual(got[a], want[a]) {
				t.Errorf("app %s:\n got  %+v\n want %+v", want[a].App, got[a], want[a])
			}
		}
	}
	if gotFNV := columnsFNV("fig3", got); gotFNV != wantFNV {
		t.Errorf("metrics FNV %s, want %s", gotFNV, wantFNV)
	}
	// The failures actually happened.
	if coFaults.Fired("dist.trace.serve") != 1 {
		t.Error("trace corruption never fired")
	}
	if crashFaults.Fired("worker.post") != 1 {
		t.Error("worker crash never fired")
	}
	if slowFaults.Fired("worker.fetch") != 1 {
		t.Error("fetch failure never fired")
	}
}

// A cell that fails on every attempt degrades to the FAILED-column /
// PartialError path — the sweep completes, the healthy cells survive, and
// the failure is attributed to the right cell index.
func TestChaosPermanentCellFailureDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is seconds long")
	}
	specs, _ := exp.SweepSpecs("fig3")
	co := New(Config{Lease: time.Second})
	srv, err := StartServer("127.0.0.1:0", co)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// The worker's first replay fails; with a zero retry budget that cell is
	// terminally failed while every other cell proceeds.
	wFaults := faultinject.New()
	wFaults.Arm("worker.replay", faultinject.Fault{Kind: faultinject.KindError, Times: 1})
	w, err := NewWorker(WorkerConfig{ID: "w", Coordinator: "http://" + srv.Addr, Faults: wFaults})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.Run(ctx)
	}()

	opts := smallOpts("mp3d")
	opts.Ctx = ctx
	acs, err := exp.New(opts).Sweep(specs, co.Replay)
	cancel()
	wg.Wait()
	var pe *exp.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	if len(pe.Cells) != 1 || pe.Total != len(specs) {
		t.Fatalf("PartialError = %+v, want exactly one failed cell of %d", pe, len(specs))
	}
	failed := 0
	for _, c := range acs[0].Cols {
		if c.Failed {
			failed++
			var ce *exp.CellError
			if !errors.As(c.Err, &ce) || ce.Index != pe.Cells[0].Index {
				t.Errorf("failed column carries %v, want *CellError at index %d", c.Err, pe.Cells[0].Index)
			}
		} else if c.Instructions == 0 {
			t.Errorf("healthy column %q has no instructions", c.Label)
		}
	}
	if failed != 1 {
		t.Fatalf("%d FAILED columns, want 1", failed)
	}
}

func TestNewWorkerValidatesURL(t *testing.T) {
	for _, bad := range []string{"", "not a url", "127.0.0.1:8377", "http://"} {
		if _, err := NewWorker(WorkerConfig{Coordinator: bad}); err == nil {
			t.Errorf("NewWorker(%q) accepted a bad coordinator URL", bad)
		}
	}
	w, err := NewWorker(WorkerConfig{Coordinator: "http://127.0.0.1:8377"})
	if err != nil {
		t.Fatal(err)
	}
	if w.ID() == "" {
		t.Error("default worker id is empty")
	}
}

// The incremental-sweep path: run 1 computes through a worker and the
// coordinator admits every checksum-verified result into the store; run 2,
// against the warm store, must merge byte-identical columns without a
// single worker process.
func TestDistributedSweepFillsAndServesCache(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed sweep is seconds long")
	}
	appNames := []string{"mp3d"}
	specs, _ := exp.SweepSpecs("fig3")
	want, err := exp.New(smallOpts(appNames...)).Figure3All()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	store1, err := cache.Open(dir, cache.Options{Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	co := New(Config{Lease: 400 * time.Millisecond})
	srv, err := StartServer("127.0.0.1:0", co)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	w, err := NewWorker(WorkerConfig{ID: "filler", Coordinator: "http://" + srv.Addr})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("worker: %v", err)
		}
	}()
	opts := smallOpts(appNames...)
	opts.Retries, opts.RetryBackoff, opts.Ctx, opts.Cache = 1, time.Millisecond, ctx, store1
	got1, err := exp.New(opts).Sweep(specs, co.Replay)
	cancel()
	wg.Wait()
	if err != nil {
		t.Fatalf("cold distributed sweep: %v", err)
	}
	if !reflect.DeepEqual(got1, want) {
		t.Fatal("cold distributed columns differ from reference")
	}
	// One entry per admitted cell, plus the application's trace.
	if st := store1.Stats(); st.Entries != len(specs)+1 {
		t.Fatalf("store holds %d entries after the cold sweep, want %d admitted cells and 1 trace", st.Entries, len(specs))
	}

	// Warm: the sweep serves every cell from the store before leasing it —
	// no worker runs at all.
	store2, err := cache.Open(dir, cache.Options{Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	co2 := New(Config{Lease: 400 * time.Millisecond})
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	opts2 := smallOpts(appNames...)
	opts2.Retries, opts2.RetryBackoff, opts2.Ctx, opts2.Cache = 1, time.Millisecond, ctx2, store2
	got2, err := exp.New(opts2).Sweep(specs, co2.Replay)
	if err != nil {
		t.Fatalf("warm distributed sweep: %v", err)
	}
	if !reflect.DeepEqual(got2, want) {
		t.Fatal("warm distributed columns differ from reference")
	}
	if got := store2.Hits(); got != uint64(len(specs)+1) {
		t.Fatalf("warm sweep hit %d entries, want the trace and all %d cells", got, len(specs))
	}
}
