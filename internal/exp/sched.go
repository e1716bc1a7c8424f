package exp

// The parallel experiment scheduler. The paper's evaluation is a large
// embarrassingly-parallel sweep — five applications × processor models ×
// consistency models × window sizes — and every cell of it is an independent
// replay of a shared immutable trace, the same fan-out the paper's own
// methodology uses (one Tango trace, many uniprocessor replays).
// perAppCells is the pipelined pool every apps × cells sweep goes through;
// runJobs bounds the remaining per-application fan-outs. Results are always
// stored by input index, so every table, figure, and golden artifact is
// byte-identical regardless of the worker count — including failure
// output: errors are selected by index, never by completion time.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dynsched/internal/cpu"
	"dynsched/internal/critpath"
	"dynsched/internal/obs"
)

// runJobs executes fn(0..n-1) on at most workers goroutines (0 or negative
// selects runtime.GOMAXPROCS(0)). Each job writes its result into a caller-
// owned slot keyed by its index, which is what makes the output order
// deterministic: scheduling decides only when a job runs, never where its
// result lands. On failure the error at the lowest failing index is
// returned — not the first by completion time — so the failure is the one
// serial execution would have hit and the output is byte-identical at any
// worker count. Workers stop claiming jobs above the lowest known failure;
// every job below it still runs to completion.
func runJobs(n, workers int, fn func(int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64
		minFail atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		errs    = make(map[int]error)
	)
	minFail.Store(int64(n))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				// The claim counter is monotonic, so once a claim lands at or
				// above the lowest failure every smaller index has already
				// been claimed (and, if below the failure, will run).
				if i >= n || int64(i) >= minFail.Load() {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					errs[i] = err
					mu.Unlock()
					for {
						cur := minFail.Load()
						if int64(i) >= cur || minFail.CompareAndSwap(cur, int64(i)) {
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if m := minFail.Load(); m < int64(n) {
		return errs[int(m)]
	}
	return nil
}

// observers is the per-cell hook of the analyze and timeline sweeps:
// called on every attempt of cell i (a*len(specs)+c), it returns fresh
// observers to attach to that replay, so a retried cell never accumulates
// a failed attempt's partial record. Either may be nil.
type observers func(i int) (*critpath.Collector, *obs.Timeline)

// Replay is the per-attempt hook of a sweep whose cells replay outside this
// process: the distributed coordinator leases each attempt to a remote
// worker. It returns the replayed numbers or the attempt's error; an error
// that declares itself permanent (see IsPermanent) ends the cell's retries.
// run is the cell's application trace, site its sweep-unique label
// ("mp3d RC-DS64") and index its merge key (a*len(specs)+c).
type Replay func(ctx context.Context, run *AppRun, spec CellSpec, site string, index int) (cpu.Breakdown, uint64, error)

// Sweep runs specs over every configured application through the one
// apps × cells loop, perAppCells. A nil replay replays every cell in
// process on the Options.Workers pool; a non-nil replay runs each cell
// attempt through the hook instead, with everything around the replay —
// generation, the result cache and its verification, the job board, fault
// sites and the retry budget — unchanged.
func (e *Experiment) Sweep(specs []CellSpec, replay Replay) ([]AppColumns, error) {
	return e.perAppCells(e.Apps(), specs, "", nil, replay)
}

// perAppCells runs the apps × specs matrix — the scheduler's one entry
// point for figures, sweeps, ablations, the analyze and timeline reports
// and distributed sweeps. Trace generation and replay are pipelined
// through one worker pool: every application's generation is enqueued up
// front, and the moment a generation completes its replay cells become
// claimable, so workers replay finished traces while other applications
// are still generating. Outcomes land in by-index slots and mergeSweep
// assembles them, so the output is byte-identical at any worker count.
// Failure is contained at both stages: an application whose trace
// generation fails has all its cells marked failed while the other
// applications' sweeps complete, and a failed cell is marked without
// disturbing its neighbours. The partial results come back alongside a
// *PartialError; only cancellation aborts outright.
//
// kind names a report sweep ("analyze", "timeline"): its cells' fault and
// board sites read "lu analyze RC-DS64" rather than "lu RC-DS64". observe
// attaches the report's per-cell observers; because those need the replay
// itself, such a sweep never consults the result cache. With a non-nil
// replay the pool bounds generation only: each cell runs on a goroutine of
// its own, since a remote attempt mostly waits, and every generated cell
// must be available to the remote fleet at once.
func (e *Experiment) perAppCells(apps []string, specs []CellSpec, kind string, observe observers, replay Replay) ([]AppColumns, error) {
	o := &e.opts
	nc := len(specs)
	sitePrefix := " "
	if kind != "" {
		sitePrefix = " " + kind + " "
	}

	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := len(apps) * (nc + 1); workers > max {
		workers = max
	}

	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	runs := make([]*AppRun, len(apps))
	genErrs := make([]error, len(apps))
	results := make([]cellResult, len(apps)*nc)
	cellErrs := make([]*CellError, len(apps)*nc)

	// cell resolves cell i = a*nc+c into its slots. A cell already in the
	// result cache skips its replay but lands in the same by-index slot, so
	// the merged output is byte-identical to a cold run. The board reports
	// it as cached rather than done, keeping ETA estimates honest.
	cell := func(a, c int) {
		i, spec := a*nc+c, specs[c]
		site := apps[a] + sitePrefix + spec.Label
		bj := o.Board.Enqueue(site)
		// replayCell runs the cell under the full containment stack — fault
		// site, panic isolation, retry — with each attempt in process, with
		// fresh observers when the sweep has them, or through the hook.
		replayCell := func() (r cellResult, cerr *CellError) {
			cerr = o.attempt(site, i, func() (err error) {
				if err := o.Faults.Fire("cell." + site); err != nil {
					return err
				}
				if replay != nil {
					r.Breakdown, r.Instructions, err = replay(ctx, runs[a], spec, site, i)
					return err
				}
				cfg := spec.config(o)
				if observe != nil {
					cfg.CritPath, cfg.Timeline = observe(i)
				}
				res, err := runArch(runs[a].TraceView(), spec.Arch, cfg)
				r = cellResult{res.Breakdown, res.Instructions}
				return err
			})
			return r, cerr
		}
		if observe == nil {
			if r, hit, cerr := o.cacheHit(spec, runs[a].addr, site, i, replayCell); hit {
				results[i], cellErrs[i] = r, cerr
				if cerr != nil {
					o.Board.Finish(bj, cerr)
				} else {
					o.Board.FinishCached(bj)
				}
				return
			}
		}
		o.Board.Start(bj)
		results[i], cellErrs[i] = replayCell()
		if cellErrs[i] != nil {
			o.Board.Finish(bj, cellErrs[i])
			return
		}
		if observe == nil {
			CellCachePut(o.Cache, runs[a].addr, spec, results[i].Breakdown, results[i].Instructions)
		}
		o.Board.Finish(bj, nil)
	}

	// The job stream: c == -1 generates app a's trace; c >= 0 replays one
	// cell over it. The channel is buffered for every job that can ever
	// exist, so workers (which enqueue an app's cells after generating its
	// trace) never block on the send. pending counts enqueued-but-unfinished
	// jobs; a generation adds its cells before retiring itself, so the count
	// can only reach zero when the whole matrix is done.
	type job struct{ a, c int }
	jobs := make(chan job, len(apps)*(nc+1))
	var (
		pending atomic.Int64
		wg      sync.WaitGroup
	)
	pending.Store(int64(len(apps)))
	done := func() {
		if pending.Add(-1) == 0 {
			close(jobs)
		}
	}
	for a := range apps {
		jobs <- job{a, -1}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for j := range jobs {
				a, c := j.a, j.c
				switch {
				case ctxDone(o.Ctx) != nil:
					if c < 0 {
						genErrs[a] = ctxDone(o.Ctx)
					}
				case c < 0:
					r, err := e.Run(apps[a])
					if err != nil {
						genErrs[a] = err
						break
					}
					runs[a] = r
					pending.Add(int64(nc))
					for cc := 0; cc < nc; cc++ {
						jobs <- job{a, cc}
					}
				case replay != nil:
					go func() {
						cell(a, c)
						done()
					}()
					continue
				default:
					cell(a, c)
				}
				done()
			}
		}()
	}
	wg.Wait()
	if err := ctxDone(o.Ctx); err != nil {
		if kind == "" {
			kind = "sweep"
		}
		return nil, fmt.Errorf("exp: %s canceled: %w", kind, err)
	}
	return mergeSweep(apps, specs, genErrs, results, cellErrs)
}

// perApp runs fn once per configured application with its generated
// trace, bounded by Options.Workers, and returns the results in
// application order. Generation is folded into each app's job rather than
// batched up front, so fn starts on the first finished trace while later
// applications are still generating.
func perApp[T any](e *Experiment, fn func(app string, run *AppRun) (T, error)) ([]T, error) {
	apps := e.Apps()
	jobs := make([]int, len(apps))
	for i, app := range apps {
		jobs[i] = e.opts.Board.Enqueue(app)
	}
	return collect(len(apps), e.opts.Workers, func(i int) (v T, err error) {
		run, err := e.Run(apps[i])
		if err != nil {
			return v, err
		}
		e.opts.Board.Start(jobs[i])
		v, err = fn(apps[i], run)
		e.opts.Board.Finish(jobs[i], err)
		return v, err
	})
}

// collect runs fn(0..n-1) through runJobs and returns the results in index
// order, or the lowest-index failure.
func collect[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := runJobs(n, workers, func(i int) (err error) {
		out[i], err = fn(i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
