// Command hidelat regenerates the tables and figures of "Hiding Memory
// Latency using Dynamic Scheduling in Shared-Memory Multiprocessors"
// (Gharachorloo, Gupta & Hennessy, ISCA 1992).
//
// Usage:
//
//	hidelat [flags] <experiment>
//
// Experiments:
//
//	table1      data reference statistics (§3.3, Table 1)
//	table2      synchronization statistics (§3.3, Table 2)
//	table3      branch behaviour (§3.3, Table 3)
//	fig3        static vs dynamic scheduling across SC/PC/RC (§4.1, Figure 3)
//	fig4        perfect prediction and ignored dependences (§4.1.3, Figure 4)
//	summary     fraction of read latency hidden per window (§7)
//	delays      read-miss issue-delay distribution (§4.1.3)
//	latency100  RC window sweep at 100-cycle miss latency (§4.2)
//	issue4      RC window sweep with 4-wide issue (§4.2)
//	wo          weak ordering window sweep (extension)
//	scpf        SC with non-binding prefetch (extension, ref [8])
//	resched     compiler load rescheduling for SS (§5/§7 future work)
//	cachegeom   cache-size ablation (trace regeneration per size)
//	contexts    multiple-hardware-contexts comparison (§5)
//	contention  finite memory bandwidth ablation (§5 extension)
//	machines    2-32 processor scaling sweep (extension)
//	distances   distance between consecutive read misses (§4.1.3)
//	ablate      store-buffer / MSHR / BTB ablations (extension)
//	analyze     critical-path cycle attribution and top-down bottlenecks
//	timeline    interval time series with phase detection per cell
//	all         everything above
//
// Flags select the problem scale (-scale small|medium|paper), the miss
// penalty (-latency), the processor count (-cpus), the traced processor
// (-tracecpu), and the applications (-apps mp3d,lu,...). -j bounds the
// worker goroutines used to fan out the independent replays of each
// experiment (0, the default, uses GOMAXPROCS); every experiment's output
// is byte-identical regardless of the worker count.
//
// Observability flags: -metrics-out writes a JSON snapshot of every counter
// and histogram the run produced; -pipe-trace-out writes a per-instruction
// pipeline trace of a representative RC-DS64 replay (Konata, or Chrome
// trace-event JSON when the path ends in .json); -progress prints a
// throughput line to stderr every second; -cpuprofile/-memprofile write
// runtime/pprof profiles.
//
// The analyze experiment replays every application with a critical-path
// collector attached and prints, per configuration, what fraction of
// execution time is attributable to each fine-grained cause (data
// dependences, read/write latency, synchronization, consistency ordering,
// buffer and MSHR structural limits, branch-misprediction refill), plus the
// distribution of each instruction's last-arriving dependence edge. The
// buckets sum exactly to the simulated execution time. -analyze-json writes
// the report as JSON; -flame-out writes a Chrome trace-event flamegraph
// (load it in chrome://tracing or Perfetto). With -serve, the attribution
// is also queryable live at /bottlenecks once the analyze step records it.
//
// The timeline experiment replays every application with an interval
// sampler attached: every 2^k simulated cycles it snapshots the stall
// breakdown, retire rate, and queue occupancies, decimating to coarser
// intervals when the fixed-size ring fills. A change-point detector over
// the stall-mix vectors segments each run into phases, and the step prints
// per-cell sparkline timelines with phase boundaries plus a per-phase
// summary table. The series are byte-identical across -j and -noskip.
// -timeline-json writes the full report (samples and phases) as JSON;
// -timeline-csv writes the samples as CSV.
//
// -serve ADDR starts a live HTTP server for the duration of the run
// (":0" picks a free port; the bound address is printed to stderr) exposing
// /metrics (Prometheus text), /metrics.json, /jobs (the experiment
// scheduler's per-job board), /progress, /timeline (interval series of
// every registered cell), /events (live timeline samples as Server-Sent
// Events), /healthz, and /debug/pprof/.
//
// -ledger PATH appends one structured JSON-Lines record per invocation:
// run id, version, options, wall time, allocator statistics, per-app
// generation cycles, per-cell replay cycles and MCPI, and a determinism
// checksum of the metrics snapshot.
//
// Distributed sweeps: -coordinator ADDR runs a spec sweep (fig3, fig4,
// summary, latency100, issue4, wo, scpf, ablate) as a fault-tolerant
// coordinator that generates the traces locally and serves the replay
// cells to remote workers over HTTP. The other experiments run locally:
// cachegeom, contexts, contention and machines vary trace generation
// itself, which no cell spec can name. Workers join with
//
//	hidelat worker -join http://HOST:PORT [-id NAME]
//
// Cells move through a lease-based queue (a worker that stops heartbeating
// loses its lease and the cell is reassigned), traces travel through a
// checksummed content-addressed cache, and the merged output — tables,
// CSV, metrics, and the ledger's determinism checksum — is byte-identical
// to a single-process run at any worker count and under any failure
// schedule. The sweep runs through the same loop as a local one, so
// -retries, -cache and -cache-verify apply unchanged (a lost lease is one
// failed attempt); -j bounds trace generation only. -lease bounds how long
// a silent worker holds a cell and -queue-max bounds the admission queue
// (excess requests get 429).
//
// Incremental sweeps: -cache DIR (default $HIDELAT_CACHE) memoizes
// generated traces and per-cell replay results in a persistent
// content-addressed store, so repeated sweeps only pay for what changed —
// a warm run's stdout and ledger determinism checksum are byte-identical
// to the cold run that populated the store. -cache-off disables the store
// for one run; -cache-verify P recomputes fraction P of the hits from
// scratch and fails the run on any divergence. The store is maintained
// with
//
//	hidelat cache [-dir DIR] stats|verify|gc [-max-bytes N]|clear
//
// The diff subcommand compares two run artifacts:
//
//	hidelat diff [-threshold 0.05] [-json] OLD NEW
//
// OLD and NEW may each be a JSON-Lines run ledger (the newest record wins),
// a single ledger record, a -metrics-out snapshot, a -timeline-json report
// (compared on per-cell cycles, MCPI, and per-phase spans), or any JSON
// object with numeric leaves. All tracked metrics are cost metrics, so an increase
// beyond the threshold is a regression; diff exits non-zero when any
// tracked metric regresses, which lets CI gate on the trajectory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dynsched"
	"dynsched/internal/apps"
	"dynsched/internal/cache"
	"dynsched/internal/consistency"
	"dynsched/internal/cpu"
	"dynsched/internal/critpath"
	"dynsched/internal/dist"
	"dynsched/internal/exp"
	"dynsched/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hidelat:", err)
		os.Exit(1)
	}
}

// subcommands are the maintenance commands beside the experiments.
var subcommands = map[string]func([]string) error{"diff": runDiff, "worker": runWorker, "cache": runCacheCmd}

func run(args []string) error {
	if len(args) > 0 && subcommands[args[0]] != nil {
		return subcommands[args[0]](args[1:])
	}
	start := time.Now()
	fs := flag.NewFlagSet("hidelat", flag.ContinueOnError)
	scaleName := fs.String("scale", "medium", "problem scale: small, medium, or paper")
	latency := fs.Uint("latency", 50, "cache miss penalty in cycles")
	cpus := fs.Int("cpus", 16, "processors in the multiprocessor simulation")
	traceCPU := fs.Int("tracecpu", 1, "processor whose trace is replayed")
	appList := fs.String("apps", "", "comma-separated applications (default: all five)")
	workers := fs.Int("j", 0, "worker goroutines for experiment fan-out (0 = GOMAXPROCS)")
	retries := fs.Int("retries", 0, "extra attempts a failed replay cell gets before it is marked failed")
	noskip := fs.Bool("noskip", false, "disable event-driven time skipping in the processor replays (results are identical; for diagnosis and equivalence testing)")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	csvOut := fs.Bool("csv", false, "emit the column experiments' figure data as CSV")
	metricsOut := fs.String("metrics-out", "", "write a JSON metrics snapshot to this file")
	analyzeJSON := fs.String("analyze-json", "", "write the analyze report as JSON to this file")
	flameOut := fs.String("flame-out", "", "write the analyze attribution as a Chrome trace-event flamegraph to this file")
	timelineJSON := fs.String("timeline-json", "", "write the timeline report (samples and phases) as JSON to this file")
	timelineCSV := fs.String("timeline-csv", "", "write the timeline samples as CSV to this file")
	pipeOut := fs.String("pipe-trace-out", "", "write a pipeline trace of an RC-DS64 replay of the first app (.json = Chrome trace, else Konata)")
	progress := fs.Bool("progress", false, "print simulation throughput to stderr every second")
	serveAddr := fs.String("serve", "", "serve live /metrics, /jobs, /progress, and /debug/pprof on this address while the run executes (e.g. :8080; :0 picks a free port)")
	ledgerPath := fs.String("ledger", "", "append one JSON-Lines run record (cycles, MCPI, wall time, determinism checksum) to this file")
	coordAddr := fs.String("coordinator", "", "run the experiment as a distributed sweep coordinator serving workers on this address (host:port; :0 picks a free port); column experiments only")
	cacheDir := fs.String("cache", os.Getenv("HIDELAT_CACHE"), "persistent result-cache directory: memoize generated traces and replay-cell results across runs (default $HIDELAT_CACHE)")
	cacheOff := fs.Bool("cache-off", false, "disable the result cache even when -cache or $HIDELAT_CACHE is set")
	cacheVerify := fs.Float64("cache-verify", 0, "fraction [0,1] of cell cache hits to recompute and compare; a divergence fails the cell hard")
	leaseDur := fs.Duration("lease", dist.DefaultLease, "distributed mode: how long a silent worker holds a claimed cell before it is reassigned")
	queueMax := fs.Int("queue-max", dist.DefaultQueueMax, "distributed mode: admission-queue high-water mark; requests beyond it get 429")
	cpuProfile := fs.String("cpuprofile", "", "write a runtime/pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a runtime/pprof heap profile to this file")
	version := fs.Bool("version", false, "print the version and exit")
	fs.BoolVar(version, "v", false, "shorthand for -version")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage: hidelat [flags] <experiment>\n")
		fmt.Fprintf(fs.Output(), "       hidelat diff [-threshold 0.05] [-json] OLD NEW\n")
		fmt.Fprintf(fs.Output(), "       hidelat worker -join http://HOST:PORT [-id NAME]\n")
		fmt.Fprintf(fs.Output(), "       hidelat cache [-dir DIR] stats|verify|gc [-max-bytes N]|clear\n\n")
		line := "Experiments:"
		for _, s := range append(steps, step{name: "all"}) {
			if len(line)+1+len(s.name) > 76 {
				fmt.Fprintln(fs.Output(), line)
				line = "            "
			}
			line += " " + s.name
		}
		fmt.Fprintf(fs.Output(), "%s\n\nFlags:\n", line)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	// flag parsing stops at the first positional; re-parse the remainder so
	// flags may also follow the experiment name (hidelat fig3 -csv).
	what := ""
	if fs.NArg() > 0 {
		what = fs.Arg(0)
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return err
		}
	}
	if *version {
		fmt.Printf("hidelat %s (dynsched)\n", dynsched.Version)
		return nil
	}
	if what == "" || fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("expected exactly one experiment name")
	}

	// Validate resource flags up front: a bad value should be a usage error
	// now, not a confusing failure three simulations in.
	switch {
	case *workers < 0:
		return fmt.Errorf("-j must be >= 0, got %d", *workers)
	case *retries < 0:
		return fmt.Errorf("-retries must be >= 0, got %d", *retries)
	case *timeout < 0:
		return fmt.Errorf("-timeout must be >= 0, got %v", *timeout)
	case *cpus <= 0:
		return fmt.Errorf("-cpus must be >= 1, got %d", *cpus)
	case *traceCPU < 0:
		return fmt.Errorf("-tracecpu must be >= 0, got %d", *traceCPU)
	case *leaseDur <= 0:
		return fmt.Errorf("-lease must be > 0, got %v", *leaseDur)
	case *queueMax < 1:
		return fmt.Errorf("-queue-max must be >= 1, got %d", *queueMax)
	case *cacheVerify < 0 || *cacheVerify > 1:
		return fmt.Errorf("-cache-verify must be in [0,1], got %g", *cacheVerify)
	}
	if *cacheVerify > 0 && (*cacheDir == "" || *cacheOff) {
		return fmt.Errorf("-cache-verify requires an enabled -cache DIR")
	}
	// The distributed-mode knobs only mean something with -coordinator, and
	// the coordinator only shards the spec sweeps.
	if *coordAddr == "" {
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if set["lease"] || set["queue-max"] {
			return fmt.Errorf("-lease and -queue-max require -coordinator")
		}
	} else if _, ok := exp.LookupSweep(what); !ok {
		var names []string
		for _, s := range steps {
			if _, ok := exp.LookupSweep(s.name); ok {
				names = append(names, s.name)
			}
		}
		return fmt.Errorf("-coordinator supports the column experiments (%s), not %q", strings.Join(names, ", "), what)
	}
	if _, ok := lookupStep(what); !ok && what != "all" {
		return fmt.Errorf("unknown experiment %q", what)
	}

	scale, err := apps.ParseScale(*scaleName)
	if err != nil {
		return err
	}

	// SIGINT/SIGTERM (and -timeout) cancel the run cooperatively: the
	// simulators poll the context and unwind, partial results are printed,
	// and the ledger record is marked interrupted.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := exp.Options{
		NumCPUs:     *cpus,
		Scale:       scale,
		MissPenalty: uint32(*latency),
		TraceCPU:    *traceCPU,
		Workers:     *workers,
		Retries:     *retries,
		NoTimeSkip:  *noskip,
		Ctx:         ctx,
	}
	if *appList != "" {
		opts.Apps = strings.Split(*appList, ",")
	}
	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			return err
		}
		defer stop()
	}
	st := &runState{
		csv:          *csvOut,
		analyzeJSON:  *analyzeJSON,
		flameOut:     *flameOut,
		timelineJSON: *timelineJSON,
		timelineCSV:  *timelineCSV,
	}
	if *metricsOut != "" || *serveAddr != "" || *ledgerPath != "" {
		st.metrics = obs.NewRegistry()
		opts.Metrics = st.metrics
	}
	if *cacheDir != "" && !*cacheOff {
		store, err := cache.Open(*cacheDir, cache.Options{Version: dynsched.Version, Metrics: st.metrics})
		if err != nil {
			return err
		}
		// Close persists the index (LRU metadata, lifetime hit/miss counters);
		// a failure costs only staleness, never correctness, since Open
		// rescans the objects directory.
		defer func() {
			if cerr := store.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "hidelat: cache index write failed: %v\n", cerr)
			}
			if st := store.Stats(); st.Hits+st.Misses > 0 {
				fmt.Fprintf(os.Stderr, "hidelat: result cache %s: %d hit(s), %d miss(es)\n", *cacheDir, st.Hits, st.Misses)
			}
		}()
		opts.Cache = store
		opts.CacheVerify = *cacheVerify
	}
	var pr *obs.Progress
	if *progress || *serveAddr != "" {
		// The live server's /progress endpoint needs a ticker even when the
		// stderr printout is off; io.Discard keeps the terminal quiet.
		out := io.Writer(io.Discard)
		if *progress {
			out = os.Stderr
		}
		pr = obs.NewProgress(out, time.Second)
		pr.Start()
		defer pr.Stop()
		opts.Progress = pr
	}
	if *serveAddr != "" {
		opts.Board = obs.NewJobBoard()
		opts.Timelines = obs.NewTimelineHub()
		srv, err := obs.StartServer(*serveAddr, obs.ServerState{
			Registry: st.metrics, Board: opts.Board, Progress: pr,
			Timelines: opts.Timelines, Version: dynsched.Version,
		})
		if err != nil {
			return err
		}
		defer shutdown(srv)
		fmt.Fprintf(os.Stderr, "hidelat: live server on http://%s/ (metrics, jobs, progress, pprof)\n", srv.Addr)
	}
	// A single sweep step that fixes its own miss penalty generates at it
	// from the start, so the pipeline trace below replays the same traces.
	e := harness(exp.New(opts), what)
	// writeLedger appends the run record even when the run failed: an
	// interrupted or partial sweep is marked as such rather than vanishing
	// from the run history.
	writeLedger := func(cmd string, runErr error) error {
		if *ledgerPath == "" {
			return nil
		}
		rec := obs.BuildLedgerRecord(dynsched.Version, cmd, args, map[string]any{
			"scale": *scaleName, "latency": *latency, "cpus": *cpus,
			"tracecpu": *traceCPU, "apps": *appList, "j": *workers,
		}, start, st.metrics.Snapshot())
		if errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded) {
			rec.Interrupted = true
		}
		var pe *exp.PartialError
		if errors.As(runErr, &pe) {
			rec.FailedCells = pe.FailedLabels()
		}
		if err := obs.AppendLedger(*ledgerPath, rec); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "hidelat: appended run %s to ledger %s\n", rec.ID, *ledgerPath)
		return nil
	}

	// Run the experiment(s). A *PartialError degrades rather than aborts:
	// the step has already printed its partial tables, `all` continues with
	// the remaining experiments, and the combined failure is reported at
	// exit. Anything else — including cancellation — stops the dispatch.
	stepErr := func() error {
		if *coordAddr != "" {
			// Coordinate a distributed sweep: serve the cells to remote
			// workers and lease every cell attempt to them.
			co := dist.New(dist.Config{Lease: *leaseDur, QueueMax: *queueMax})
			srv, err := dist.StartServer(*coordAddr, co)
			if err != nil {
				return err
			}
			defer shutdown(srv)
			fmt.Fprintf(os.Stderr, "hidelat: coordinating %s on http://%s/ (join with: hidelat worker -join http://%s)\n",
				what, srv.Addr, srv.Addr)
			st.replay = co.Replay
		}
		todo := steps
		if what != "all" {
			s, _ := lookupStep(what)
			todo = []step{s}
		}
		var partial error
		for i, s := range todo {
			if i > 0 {
				fmt.Println()
			}
			if err := s.run(st, e, s.name); err != nil {
				var pe *exp.PartialError
				if !errors.As(err, &pe) {
					return err
				}
				partial = err
			}
		}
		return partial
	}()

	// Write the observability artifacts unless the run was canceled — the
	// writers are atomic, so a partial sweep still leaves valid files — and
	// always record the run in the ledger, marked interrupted or partial.
	interrupted := errors.Is(stepErr, context.Canceled) || errors.Is(stepErr, context.DeadlineExceeded)
	var pe *exp.PartialError
	if !interrupted && (stepErr == nil || errors.As(stepErr, &pe)) {
		if err := finishObs(e, st.metrics, *metricsOut, *pipeOut, *memProfile); err != nil && stepErr == nil {
			stepErr = err
		}
	}
	if err := writeLedger(what, stepErr); err != nil && stepErr == nil {
		stepErr = err
	}
	return stepErr
}

// runCacheCmd implements `hidelat cache <op>`: maintenance of the
// persistent result cache. stats summarizes the store, verify re-checks
// every entry end to end (removing corrupt ones and failing the command so
// CI can gate on it), gc evicts least-recently-used entries down to a byte
// budget, and clear empties the store.
func runCacheCmd(args []string) error {
	fs := flag.NewFlagSet("hidelat cache", flag.ContinueOnError)
	dir := fs.String("dir", os.Getenv("HIDELAT_CACHE"), "cache directory (default $HIDELAT_CACHE)")
	maxBytes := fs.Int64("max-bytes", 0, "gc: evict least-recently-used entries until the store holds at most this many bytes")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage: hidelat cache [-dir DIR] stats|verify|gc [-max-bytes N]|clear\n\n"+
			"Maintains the persistent result cache used by -cache DIR:\n"+
			"  stats   entry count, bytes, and lifetime hit/miss counters\n"+
			"  verify  re-read every entry (magic, lengths, CRC, key); corrupt\n"+
			"          entries are removed and the command exits non-zero\n"+
			"  gc      evict least-recently-used entries down to -max-bytes\n"+
			"  clear   remove every entry and the index\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	op := ""
	if fs.NArg() > 0 {
		op = fs.Arg(0)
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return err
		}
	}
	if op == "" || fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("cache: expected exactly one operation (stats, verify, gc, clear)")
	}
	if *dir == "" {
		return fmt.Errorf("cache: no directory: pass -dir or set $HIDELAT_CACHE")
	}
	s, err := cache.Open(*dir, cache.Options{Version: dynsched.Version})
	if err != nil {
		return err
	}
	switch op {
	case "stats":
		st := s.Stats()
		fmt.Printf("cache %s: %d entries, %d bytes\n", st.Dir, st.Entries, st.Bytes)
		fmt.Printf("lifetime: %d hit(s), %d miss(es)\n", st.LifetimeHits, st.LifetimeMisses)
		return nil
	case "verify":
		checked, corrupt, err := s.Verify()
		fmt.Printf("verified %d entries, %d corrupt (removed)\n", checked, corrupt)
		if err != nil {
			return err
		}
		if corrupt > 0 {
			return fmt.Errorf("cache: %d corrupt entries found (writes are atomic, so this indicates external damage)", corrupt)
		}
		return nil
	case "gc":
		if *maxBytes <= 0 {
			return fmt.Errorf("cache gc: -max-bytes must be > 0 (use clear to empty the store)")
		}
		removed, freed, err := s.GC(*maxBytes)
		fmt.Printf("evicted %d entries, freed %d bytes\n", removed, freed)
		return err
	case "clear":
		if err := s.Clear(); err != nil {
			return err
		}
		fmt.Printf("cleared cache %s\n", *dir)
		return nil
	}
	fs.Usage()
	return fmt.Errorf("cache: unknown operation %q", op)
}

// runDiff implements `hidelat diff OLD NEW`: load the tracked metrics of two
// run artifacts, compare them, and exit non-zero when anything regressed.
func runDiff(args []string) error {
	fs := flag.NewFlagSet("hidelat diff", flag.ContinueOnError)
	threshold := fs.Float64("threshold", 0.05, "relative change beyond which a metric counts as regressed (0.05 = 5%)")
	jsonOut := fs.Bool("json", false, "emit the diff report as JSON instead of text")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage: hidelat diff [flags] OLD NEW\n\n"+
			"Compares the tracked metrics of two run artifacts: JSON-Lines run\n"+
			"ledgers (the newest record wins), single ledger records, -metrics-out\n"+
			"snapshots, or any JSON object with numeric leaves. Exits non-zero when\n"+
			"a tracked metric regressed beyond the threshold.\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return fmt.Errorf("diff: expected exactly two run artifacts, got %d", fs.NArg())
	}
	oldM, oldKind, oldFNV, err := obs.LoadMetricsFile(fs.Arg(0))
	if err != nil {
		return err
	}
	newM, newKind, newFNV, err := obs.LoadMetricsFile(fs.Arg(1))
	if err != nil {
		return err
	}
	rep := obs.DiffMetrics(oldM, newM, obs.DiffOptions{Threshold: *threshold})
	rep.OldFNV, rep.NewFNV = oldFNV, newFNV
	if *jsonOut {
		if err := jsonWriter(rep)(os.Stdout); err != nil {
			return err
		}
	} else {
		fmt.Printf("old: %s (%s)\nnew: %s (%s)\n", fs.Arg(0), oldKind, fs.Arg(1), newKind)
		fmt.Print(rep.Format())
	}
	if rep.Regressions > 0 {
		return fmt.Errorf("diff: %d tracked metric(s) regressed beyond ±%.3g%%", rep.Regressions, 100**threshold)
	}
	return nil
}

// finishObs writes the observability artifacts requested on the command
// line: the pipeline trace of a representative replay, the metrics
// snapshot, and the heap profile.
func finishObs(e *exp.Experiment, reg *obs.Registry, metricsOut, pipeOut, memProfile string) error {
	if pipeOut != "" {
		app := e.Apps()[0]
		run, err := e.Run(app)
		if err != nil {
			return err
		}
		tracer := obs.NewPipeTracer(0)
		cfg := cpu.Config{Model: consistency.RC, Window: 64, Pipe: tracer}
		cfg.Metrics, cfg.MetricsPrefix = reg, "cpu."+app+".RC-DS64."
		if _, err := cpu.RunDS(run.Trace, cfg); err != nil {
			return err
		}
		if err := obs.WritePipeTraceFile(tracer, pipeOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "hidelat: wrote pipeline trace of %s RC-DS64 (%d instructions) to %s\n",
			app, tracer.Len(), pipeOut)
	}
	if err := writeArtifact(metricsOut, "metrics snapshot", reg.WriteJSON); err != nil {
		return err
	}
	if memProfile != "" {
		return obs.WriteHeapProfile(memProfile)
	}
	return nil
}

// runState is what every step reads beyond its harness: the output
// switches and artifact paths set on the command line, the metrics
// registry, and, under -coordinator, the hook that leases each cell
// attempt to a remote worker.
type runState struct {
	csv                       bool
	analyzeJSON, flameOut     string
	timelineJSON, timelineCSV string
	metrics                   *obs.Registry
	replay                    exp.Replay
}

// step is one row of hidelat's experiment table: its name and how it runs
// on a harness. run is passed the step's name.
type step struct {
	name string
	run  func(st *runState, e *exp.Experiment, name string) error
}

// steps is the experiment table, in the order `all` runs it. Only the spec
// sweeps — the steps named after a row of exp's sweep table, which holds
// their specs, title and miss penalty — can run under -coordinator.
// cachegeom, contexts, contention and machines vary trace generation
// itself, which no CellSpec can name, so they always run locally.
// latency100 comes last: it regenerates every trace at its own miss
// penalty.
var steps = []step{
	{name: "table1", run: report((*exp.Experiment).Table1, exp.FormatTable1)},
	{name: "table2", run: report((*exp.Experiment).Table2, exp.FormatTable2)},
	{name: "table3", run: report((*exp.Experiment).Table3, exp.FormatTable3)},
	{name: "fig3", run: sweep(printColumns)},
	{name: "fig4", run: sweep(printColumns)},
	{name: "summary", run: sweep(printSummary)},
	{name: "delays", run: report((*exp.Experiment).DelayReport, text)},
	{name: "distances", run: report((*exp.Experiment).MissDistanceReport, text)},
	{name: "issue4", run: sweep(printColumns)},
	{name: "wo", run: sweep(printColumns)},
	{name: "scpf", run: sweep(printColumns)},
	{name: "resched", run: report((*exp.Experiment).ReschedAll, exp.FormatResched)},
	{name: "cachegeom", run: genSweep(exp.AblationCacheSize, exp.FormatCacheGeom)},
	{name: "contexts", run: genSweep(exp.MultipleContexts, exp.FormatMC)},
	{name: "contention", run: genSweep(exp.Contention, exp.FormatContention)},
	{name: "machines", run: genSweep(exp.MachineSweep, exp.FormatMachines)},
	{name: "ablate", run: sweep(printAblation)},
	{name: "analyze", run: analyzeCmd},
	{name: "timeline", run: timelineCmd},
	{name: "latency100", run: sweep(printColumns)},
}

func lookupStep(name string) (step, bool) {
	for _, s := range steps {
		if s.name == name {
			return s, true
		}
	}
	return step{}, false
}

// sweep is a spec-sweep step: it replays the sweep-table row named after
// the step in process, or with every cell attempt leased to a remote
// worker under -coordinator, and renders whatever columns came back,
// failed cells included.
func sweep(render func(*runState, exp.SweepDef, []exp.AppColumns)) func(*runState, *exp.Experiment, string) error {
	return func(st *runState, e *exp.Experiment, name string) error {
		sw, _ := exp.LookupSweep(name)
		acs, err := harness(e, name).Sweep(sw.Specs(), st.replay)
		if acs != nil {
			render(st, sw, acs)
		}
		return err
	}
}

// harness returns the harness step name runs on: e, or a fresh harness
// when the step's sweep fixes a miss penalty e's traces were not generated
// at.
func harness(e *exp.Experiment, name string) *exp.Experiment {
	sw, ok := exp.LookupSweep(name)
	if !ok || sw.MissPenalty == 0 || sw.MissPenalty == e.Options().MissPenalty {
		return e
	}
	o := e.Options()
	o.MissPenalty = sw.MissPenalty
	return exp.New(o)
}

// shutdown drains a server's in-flight requests, falling back to a hard
// close after two seconds so shutdown can never hang the CLI.
func shutdown(srv interface{ Shutdown(context.Context) error }) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
}

// report is a step that computes one value over every application and
// prints it.
func report[T any](compute func(*exp.Experiment) (T, error), format func(T) string) func(*runState, *exp.Experiment, string) error {
	return func(_ *runState, e *exp.Experiment, _ string) error {
		v, err := compute(e)
		if err != nil {
			return err
		}
		fmt.Print(format(v))
		return nil
	}
}

func text(s string) string { return s }

// genSweep is a step that regenerates each application's traces under varied
// machine parameters and prints one report per application.
func genSweep[T any](gen func(string, exp.Options) (T, error), format func(string, T) string) func(*runState, *exp.Experiment, string) error {
	return func(_ *runState, e *exp.Experiment, _ string) error {
		for _, app := range e.Apps() {
			rows, err := gen(app, e.Options())
			if err != nil {
				return err
			}
			fmt.Print(format(app, rows))
		}
		return nil
	}
}

// printColumns publishes a column experiment's columns as metrics and
// prints them as tables, or as CSV under -csv.
func printColumns(st *runState, sw exp.SweepDef, acs []exp.AppColumns) {
	for _, ac := range acs {
		exp.RecordColumns(st.metrics, sw.Name, ac.App, ac.Cols)
	}
	if st.csv {
		fmt.Print(exp.ColumnsCSV(acs))
		return
	}
	fmt.Print(exp.FormatAppColumns(sw.Title, acs))
}

func printSummary(_ *runState, _ exp.SweepDef, acs []exp.AppColumns) {
	fmt.Print(exp.FormatSummary(exp.SummarizeReadHidden(acs)))
}

// printAblation prints each application's ablations as one table per
// group, each against the shared BASE column.
func printAblation(_ *runState, _ exp.SweepDef, acs []exp.AppColumns) {
	for _, ac := range acs {
		fmt.Println(exp.FormatAblations(ac.Cols, func(title, config string) string {
			return fmt.Sprintf("%s, %s (%s)", title, strings.ToUpper(ac.App), config)
		}))
	}
}

// analyzeCmd runs the critical-path attribution sweep and prints the
// top-down report. Like the figure steps, a *PartialError still prints the
// healthy cells and writes the artifacts before being reported at exit.
func analyzeCmd(st *runState, e *exp.Experiment, _ string) error {
	rep, err := e.AnalyzeAll()
	if rep == nil {
		return err
	}
	fmt.Print(rep.Format())
	exp.RecordAnalyze(st.metrics, rep)
	if werr := writeArtifact(st.analyzeJSON, "analyze report", jsonWriter(rep)); werr != nil {
		return werr
	}
	flame := func(w io.Writer) error { return critpath.WriteFlame(w, rep.FlameCells()) }
	if werr := writeArtifact(st.flameOut, "attribution flamegraph", flame); werr != nil {
		return werr
	}
	return err
}

func timelineCmd(st *runState, e *exp.Experiment, _ string) error {
	rep, err := e.TimelineAll()
	if rep == nil {
		return err
	}
	fmt.Print(rep.Format())
	exp.RecordTimeline(st.metrics, rep)
	if werr := writeArtifact(st.timelineJSON, "timeline report", jsonWriter(rep)); werr != nil {
		return werr
	}
	samples := func(w io.Writer) error {
		_, err := io.WriteString(w, rep.CSV())
		return err
	}
	if werr := writeArtifact(st.timelineCSV, "timeline samples", samples); werr != nil {
		return werr
	}
	return err
}

// writeArtifact writes a report file atomically, if its path is set, and
// says so on stderr.
func writeArtifact(path, what string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	if err := obs.WriteFileAtomic(path, write); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "hidelat: wrote %s to %s\n", what, path)
	return nil
}

// jsonWriter encodes v as indented JSON.
func jsonWriter(v any) func(io.Writer) error {
	return func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
}

// runWorker implements `hidelat worker -join URL`: claim, replay, and
// report cells until the coordinator's sweep completes. The loop is safe
// to kill at any point — an unreported cell is reassigned when its lease
// expires.
func runWorker(args []string) error {
	fs := flag.NewFlagSet("hidelat worker", flag.ContinueOnError)
	join := fs.String("join", "", "coordinator base URL to claim replay cells from (http://host:port)")
	id := fs.String("id", "", "worker name reported to the coordinator (default: hostname-pid)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage: hidelat worker -join http://HOST:PORT [-id NAME]\n\n"+
			"Joins a distributed sweep started with hidelat -coordinator, replaying\n"+
			"cells until the sweep completes. Safe to kill at any point: work the\n"+
			"worker has not reported is reassigned when its lease expires.\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("worker: unexpected argument %q", fs.Arg(0))
	}
	if *join == "" {
		fs.Usage()
		return fmt.Errorf("worker: -join URL is required")
	}
	w, err := dist.NewWorker(dist.WorkerConfig{ID: *id, Coordinator: *join})
	if err != nil {
		return err
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	n, err := w.Run(ctx)
	fmt.Fprintf(os.Stderr, "hidelat: worker %s resolved %d cells\n", w.ID(), n)
	if errors.Is(err, context.Canceled) {
		return nil // interrupted by the operator; the coordinator reassigns
	}
	return err
}
