package main

// The three workloads. Each runs its timed operation through the same exp
// entry points hidelat uses (pass), and again serially through the layers'
// own functions with a span around every call (direct). Both fill the same
// outputs, so the correctness gate compares them cell for cell.

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"dynsched"
	"dynsched/internal/apps"
	"dynsched/internal/cache"
	"dynsched/internal/consistency"
	"dynsched/internal/cpu"
	"dynsched/internal/critpath"
	"dynsched/internal/exp"
	"dynsched/internal/mem"
	"dynsched/internal/obs"
	"dynsched/internal/tango"
	"dynsched/internal/trace"
	"dynsched/internal/vm"
)

// The paper's machine, as hidelat runs it by default, and the workers of
// the timed passes: one process with two workers, one per core of the
// 2-core host the benchmark was written on.
const (
	numCPUs      = 16
	missPenalty  = 50
	benchWorkers = 2
)

// The timeline sweep's sampler geometry (exp's timelineShift and
// timelineMaxPoints). The direct run must build the same samplers;
// the gate catches any drift as a traced/untraced mismatch.
const (
	timelineShift     = 10
	timelineMaxPoints = 256
)

// config is what every pass of a workload shares.
type config struct {
	scale    apps.Scale
	traceCPU int    // the replayed processor, chosen by the seed
	dir      string // private working directory, removed at exit
}

// options is the harness configuration of `hidelat -scale <scale>
// -tracecpu <traceCPU> -j <workers>`.
func (c *config) options(workers int) exp.Options {
	return exp.Options{NumCPUs: numCPUs, Scale: c.scale, MissPenalty: missPenalty, TraceCPU: c.traceCPU, Workers: workers}
}

// workload is one benchmark workload.
type workload interface {
	// setup prepares the timed passes. It may be called several times; the
	// last call's state is kept. A set-up that computes simulated outputs
	// returns them for the correctness gate; otherwise the result is zero.
	setup() (result, error)
	// pass runs the timed operation through the exp entry points with the
	// given number of workers.
	pass(workers int) (result, error)
	// directSetup prepares direct's inputs, recording spans into r.
	directSetup(r *recorder) error
	// direct runs the timed operation serially through the layers' own
	// functions, with a span around each call. A nil r runs it untraced.
	direct(r *recorder) (result, error)
}

func newWorkload(name string, c *config) (workload, error) {
	switch name {
	case "fig3-cold":
		return &fig3Cold{c: c}, nil
	case "analyze-replay":
		return &analyzeReplay{c: c}, nil
	case "sweep-warm":
		return &sweepWarm{c: c}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have fig3-cold, analyze-replay, sweep-warm)", name)
}

// measure times fn and digests its outputs. After the clock stops, while
// the outputs still hold the operation's state, it collects twice (the
// second empties sync.Pool victims) and reads the live heap: the memory
// the operation retains, which the trace arenas dominate. The samples a
// live-heap watcher takes during the operation depend on when collections
// happen to run: on paper-scale fig3-cold on a 2-core host their peak
// spread by about 30% between runs. This reading does not depend on it.
func measure(fn func() (outputs, error)) (result, error) {
	a0, _ := allocated()
	start := time.Now()
	out, err := fn()
	wall := time.Since(start)
	a1, _ := allocated()
	if err != nil {
		return result{}, err
	}
	runtime.GC()
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	runtime.KeepAlive(out.held)
	r := out.result()
	r.Wall, r.Alloc, r.Retained = wall, a1-a0, live[0].Value.Uint64()
	return r, nil
}

// partial lets a sweep's *exp.PartialError through: its failed cells are
// marked in the columns and counted by the gate.
func partial(err error) error {
	var pe *exp.PartialError
	if errors.As(err, &pe) {
		return nil
	}
	return err
}

// expOutputs pairs the sweeps with the experiment's generations, which its
// single-flight cache serves without further work.
func expOutputs(e *exp.Experiment, sweeps ...sweep) (outputs, error) {
	runs, err := e.RunAll()
	if err != nil {
		return outputs{}, err
	}
	out := outputs{Sweeps: sweeps, held: e}
	for _, run := range runs {
		out.Gens = append(out.Gens, appGenStat(run))
	}
	return out, nil
}

// cpuSpan names the span of a replay by the model family it runs.
func cpuSpan(arch string) string {
	switch arch {
	case "BASE":
		return "cpu.base"
	case "DS":
		return "cpu.ds"
	}
	return "cpu.static"
}

// generate is exp's trace generation done through the layers: build the
// application, run the multiprocessor, check its results and freeze the
// replayed processor's trace.
func generate(r *recorder, c *config, app string) (*exp.AppRun, error) {
	end := r.begin("tango.gen")
	a, err := apps.Build(app, numCPUs, c.scale)
	if err != nil {
		end()
		return nil, err
	}
	cfg := tango.Config{NumCPUs: numCPUs, TraceCPU: c.traceCPU % numCPUs, Mem: mem.DefaultConfig()}
	cfg.Mem.MissPenalty = missPenalty
	var m *vm.PagedMem
	res, err := tango.Run(a.Progs, func(pm *vm.PagedMem) {
		m = pm
		a.Init(pm)
	}, cfg)
	if err == nil && a.Check != nil {
		err = a.Check(m)
	}
	if err != nil {
		end()
		return nil, fmt.Errorf("%s: %w", app, err)
	}
	run := &exp.AppRun{App: app, Caches: res.CacheStats, CPUs: res.CPUStats, Trace: res.Trace}
	g := appGenStat(run)
	r.count(g.Instr)
	r.add("tango.cycles", g.Cycles)
	r.add("mem.misses", g.Misses)
	end()

	end = r.begin("trace.validate")
	err = res.Trace.Validate()
	run.Trace = res.Trace.Freeze()
	r.count(uint64(run.Trace.Len()))
	end()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", app, err)
	}
	return run, nil
}

// replay runs one cell spec's processor model over tr with the observers
// in cfg, as exp's runArch does.
func replay(r *recorder, tr *trace.Trace, s exp.CellSpec, cfg cpu.Config) (cpu.Result, error) {
	m, err := consistency.ParseModel(s.Model)
	if err != nil {
		return cpu.Result{}, err
	}
	cfg.Model, cfg.Window = m, s.Window
	end := r.begin(cpuSpan(s.Arch))
	defer end()
	var res cpu.Result
	switch s.Arch {
	case "BASE":
		res = cpu.RunBaseObs(tr, cfg.CritPath, cfg.Timeline)
	case "SSBR":
		res, err = cpu.RunSSBR(tr, cfg)
	case "SS":
		res, err = cpu.RunSS(tr, cfg)
	case "DS":
		res, err = cpu.RunDS(tr, cfg)
	default:
		err = fmt.Errorf("unknown architecture %q", s.Arch)
	}
	r.count(res.Instructions)
	r.add("cpu.cycles", res.Breakdown.Total())
	return res, err
}

// replaySpecs replays a column experiment's specs over one trace through
// exp.RunSpec and normalizes the columns against BASE.
func replaySpecs(r *recorder, tr *trace.Trace, specs []exp.CellSpec) ([]exp.Column, error) {
	cols := make([]exp.Column, len(specs))
	for i, s := range specs {
		end := r.begin(cpuSpan(s.Arch))
		col, err := exp.RunSpec(tr, s, nil)
		r.count(col.Instructions)
		r.add("cpu.cycles", col.Breakdown.Total())
		end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Label, err)
		}
		cols[i] = col
	}
	exp.NormalizeColumns(cols)
	return cols, nil
}

// fig3Cold is a user's first paper-scale Figure 3 run: five traces
// generated and replayed through the fourteen configurations, with no
// result cache and no observers.
type fig3Cold struct{ c *config }

// setup warms code and allocator with the same entry points at small
// scale; it leaves no state behind.
func (w *fig3Cold) setup() (result, error) {
	o := w.c.options(benchWorkers)
	o.Scale = apps.ScaleSmall
	_, err := exp.New(o).Figure3All()
	return result{}, err
}

func (w *fig3Cold) pass(workers int) (result, error) {
	return measure(func() (outputs, error) {
		e := exp.New(w.c.options(workers))
		acs, err := e.Figure3All()
		if err := partial(err); err != nil {
			return outputs{}, err
		}
		return expOutputs(e, sweep{Name: "fig3", Apps: acs})
	})
}

func (w *fig3Cold) directSetup(*recorder) error { return nil }

func (w *fig3Cold) direct(r *recorder) (result, error) {
	return measure(func() (outputs, error) {
		var out outputs
		fig3 := sweep{Name: "fig3"}
		for _, app := range apps.Names() {
			run, err := generate(r, w.c, app)
			if err != nil {
				return outputs{}, err
			}
			out.Gens = append(out.Gens, appGenStat(run))
			r.add("trace.events", uint64(run.Trace.Len()))
			cols, err := replaySpecs(r, run.Trace, exp.Figure3Specs())
			if err != nil {
				return outputs{}, fmt.Errorf("%s: %w", app, err)
			}
			fig3.Apps = append(fig3.Apps, exp.AppColumns{App: app, Cols: cols})
		}
		out.Sweeps = []sweep{fig3}
		return out, nil
	})
}

// analyzeReplay is `hidelat analyze` followed by `hidelat timeline` over
// traces generated in set-up: the replay models with critical-path
// collectors, interval samplers and a metrics registry attached.
type analyzeReplay struct {
	c    *config
	reg  *obs.Registry
	exps map[int]*exp.Experiment // by worker count, traces generated
}

// analyzeSpecs is the attribution matrix of exp.AnalyzeAll and
// exp.TimelineAll: BASE, the static models under RC and the RC-DS window
// sweep, in Figure 3's order.
func analyzeSpecs() []exp.CellSpec {
	var specs []exp.CellSpec
	for _, s := range exp.Figure3Specs() {
		if s.Label == "BASE" || strings.HasPrefix(s.Label, "RC-") {
			specs = append(specs, s)
		}
	}
	return specs
}

// experiment returns a harness with the given worker count whose traces
// are generated, generating them on first use.
func (w *analyzeReplay) experiment(workers int) (*exp.Experiment, error) {
	if e := w.exps[workers]; e != nil {
		return e, nil
	}
	o := w.c.options(workers)
	o.Metrics = w.reg
	e := exp.New(o)
	if _, err := e.RunAll(); err != nil {
		return nil, err
	}
	w.exps[workers] = e
	return e, nil
}

func (w *analyzeReplay) setup() (result, error) {
	w.reg = obs.NewRegistry()
	w.exps = map[int]*exp.Experiment{}
	_, err := w.experiment(benchWorkers)
	return result{}, err
}

func (w *analyzeReplay) pass(workers int) (result, error) {
	e, err := w.experiment(workers)
	if err != nil {
		return result{}, err
	}
	return measure(func() (outputs, error) {
		an, err := e.AnalyzeAll()
		if err := partial(err); err != nil {
			return outputs{}, err
		}
		exp.RecordAnalyze(w.reg, an)
		tl, err := e.TimelineAll()
		if err := partial(err); err != nil {
			return outputs{}, err
		}
		exp.RecordTimeline(w.reg, tl)
		out, err := expOutputs(e)
		out.Analyze, out.Timeline = an, tl
		return out, err
	})
}

func (w *analyzeReplay) directSetup(*recorder) error { return nil }

// direct replays the set-up's traces as AnalyzeAll and TimelineAll do:
// every cell with a fresh collector, and for the timeline a fresh sampler.
func (w *analyzeReplay) direct(r *recorder) (result, error) {
	e, err := w.experiment(benchWorkers)
	if err != nil {
		return result{}, err
	}
	runs, err := e.RunAll()
	if err != nil {
		return result{}, err
	}
	causes := make([]string, critpath.NumCauses)
	for _, c := range critpath.Causes() {
		causes[c] = c.String()
	}
	specs := analyzeSpecs()
	return measure(func() (outputs, error) {
		out := outputs{Analyze: &exp.AnalyzeReport{}, Timeline: &exp.TimelineReport{Schema: exp.TimelineSchema}}
		for _, run := range runs {
			out.Gens = append(out.Gens, appGenStat(run))
			r.add("trace.events", uint64(run.Trace.Len()))
			app := exp.AnalyzeApp{App: run.App}
			for _, s := range specs {
				cp := critpath.NewCollector()
				res, err := replay(r, run.Trace, s, cpu.Config{CritPath: cp})
				if err != nil {
					return outputs{}, fmt.Errorf("%s %s: %w", run.App, s.Label, err)
				}
				cell := exp.AnalyzeCell{Label: s.Label, Arch: s.Arch, Window: s.Window, Breakdown: res.Breakdown, Instructions: res.Instructions}
				end := r.begin("obs.critpath")
				cell.Attr = cp.Attribution()
				end()
				app.Cells = append(app.Cells, cell)
			}
			out.Analyze.Apps = append(out.Analyze.Apps, app)
		}
		end := r.begin("obs.record")
		exp.RecordAnalyze(w.reg, out.Analyze)
		end()
		for _, run := range runs {
			app := exp.TimelineApp{App: run.App}
			for _, s := range specs {
				tl := obs.NewTimeline(timelineShift, timelineMaxPoints)
				tl.CauseNames = causes
				res, err := replay(r, run.Trace, s, cpu.Config{CritPath: critpath.NewCollector(), Timeline: tl})
				if err != nil {
					return outputs{}, fmt.Errorf("%s %s: %w", run.App, s.Label, err)
				}
				cell := exp.TimelineCell{Label: s.Label, Arch: s.Arch, Window: s.Window, Interval: tl.Interval(),
					TotalCycles: res.Breakdown.Total(), Instructions: res.Instructions}
				end := r.begin("obs.timeline")
				cell.Samples = tl.Samples()
				cell.Phases = exp.DetectPhases(cell.Samples)
				end()
				app.Cells = append(app.Cells, cell)
			}
			out.Timeline.Apps = append(out.Timeline.Apps, app)
		}
		end = r.begin("obs.record")
		exp.RecordTimeline(w.reg, out.Timeline)
		end()
		return out, nil
	})
}

// sinkArms are the observer configurations whose cost arms measures: one
// sink at a time against none, built per replay as the sweeps build them.
var sinkArms = []struct {
	name string
	cfg  func(prefix string) cpu.Config
}{
	{"none", func(string) cpu.Config { return cpu.Config{} }},
	{"critpath", func(string) cpu.Config { return cpu.Config{CritPath: critpath.NewCollector()} }},
	{"timeline", func(string) cpu.Config {
		return cpu.Config{Timeline: obs.NewTimeline(timelineShift, timelineMaxPoints)}
	}},
	{"metrics", func(prefix string) cpu.Config {
		return cpu.Config{Metrics: obs.NewRegistry(), MetricsPrefix: prefix}
	}},
	{"pipe", func(string) cpu.Config { return cpu.Config{Pipe: obs.NewPipeTracer(0)} }},
}

// arms replays every RC-DS cell of the analyze matrix once per sink arm,
// interleaved so that drift in host speed reaches every arm alike. The
// arm order rotates from cell to cell, so each arm follows every other
// equally often and pays alike for the garbage its predecessor left. Each
// replay is one span named after its arm; sink construction is inside it.
func (w *analyzeReplay) arms(r *recorder) error {
	e, err := w.experiment(benchWorkers)
	if err != nil {
		return err
	}
	runs, err := e.RunAll()
	if err != nil {
		return err
	}
	cell := 0
	for _, run := range runs {
		for _, s := range analyzeSpecs() {
			if s.Arch != "DS" {
				continue
			}
			cell++
			for i := range sinkArms {
				arm := sinkArms[(i+cell)%len(sinkArms)]
				end := r.begin("arm." + arm.name)
				cfg := arm.cfg("cpu." + run.App + "." + s.Label + ".")
				cfg.Model, cfg.Window = consistency.RC, s.Window
				res, err := cpu.RunDS(run.Trace, cfg)
				r.count(res.Instructions)
				end()
				if err != nil {
					return fmt.Errorf("%s %s %s: %w", run.App, s.Label, arm.name, err)
				}
			}
		}
	}
	return nil
}

// warmSweeps are the five column experiments whose cells the result cache
// memoizes, with the names exp.SweepSpecs knows them by.
var warmSweeps = []struct {
	name string
	run  func(*exp.Experiment) ([]exp.AppColumns, error)
}{
	{"fig3", (*exp.Experiment).Figure3All},
	{"fig4", (*exp.Experiment).Figure4All},
	{"issue4", (*exp.Experiment).Issue4All},
	{"wo", (*exp.Experiment).WOAll},
	{"scpf", (*exp.Experiment).SCPrefetchAll},
}

// benchTraceKind namespaces the direct run's own trace entries in the
// store; exp's trace entries use a private format it does not read.
const benchTraceKind = "perfbench-trace"

// sweepWarm repeats the five cacheable sweeps against a store the set-up
// filled: trace entries are read and decoded, every cell is a hit, and
// neither tango nor the replay models run.
type sweepWarm struct {
	c *config

	// From the last set-up: its sweeps, which directSetup stores again
	// under the direct run's keys, and its generations.
	sweeps []sweep
	gens   map[string]genStat
}

func (w *sweepWarm) storeDir() string { return filepath.Join(w.c.dir, "store") }

// runSweeps opens the store, runs the five sweeps on a new experiment and
// closes the store, as one `hidelat -cache DIR` invocation per sweep
// would. It reports the store's misses.
func (w *sweepWarm) runSweeps(workers int) (outputs, uint64, error) {
	st, err := cache.Open(w.storeDir(), cache.Options{Version: dynsched.Version})
	if err != nil {
		return outputs{}, 0, err
	}
	o := w.c.options(workers)
	o.Cache = st
	e := exp.New(o)
	var sweeps []sweep
	for _, s := range warmSweeps {
		acs, err := s.run(e)
		if err := partial(err); err != nil {
			return outputs{}, 0, fmt.Errorf("%s: %w", s.name, err)
		}
		sweeps = append(sweeps, sweep{Name: s.name, Apps: acs})
	}
	if err := st.Close(); err != nil {
		return outputs{}, 0, err
	}
	out, err := expOutputs(e, sweeps...)
	return out, st.Misses(), err
}

// setup runs the sweeps cold into a fresh store: every trace is encoded
// and stored, every cell computed and stored.
func (w *sweepWarm) setup() (result, error) {
	if err := os.RemoveAll(w.storeDir()); err != nil {
		return result{}, err
	}
	out, _, err := w.runSweeps(benchWorkers)
	if err != nil {
		return result{}, err
	}
	w.sweeps = out.Sweeps
	w.gens = map[string]genStat{}
	for _, g := range out.Gens {
		w.gens[g.App] = g
	}
	return out.result(), nil
}

func (w *sweepWarm) pass(workers int) (result, error) {
	var misses uint64
	r, err := measure(func() (outputs, error) {
		out, m, err := w.runSweeps(workers)
		misses = m
		return out, err
	})
	if err == nil && misses > 0 {
		err = fmt.Errorf("warm pass missed the store %d times", misses)
	}
	return r, err
}

func (w *sweepWarm) traceKey(app string) string {
	return fmt.Sprintf("app=%s|scale=%s|tracecpu=%d", app, w.c.scale, w.c.traceCPU)
}

// directSetup encodes the stored traces again under the direct run's keys and
// stores every cell of the set-up's sweeps again.
func (w *sweepWarm) directSetup(r *recorder) error {
	st, err := cache.Open(w.storeDir(), cache.Options{Version: dynsched.Version})
	if err != nil {
		return err
	}
	o := w.c.options(benchWorkers)
	o.Cache = st
	e := exp.New(o)
	addrs := map[string]string{}
	for _, app := range apps.Names() {
		run, err := e.Run(app)
		if err != nil {
			return err
		}
		addrs[app] = run.ContentAddr()
		var buf bytes.Buffer
		end := r.begin("trace.encode")
		_, err = run.Trace.WriteTo(&buf)
		r.count(uint64(run.Trace.Len()))
		end()
		if err != nil {
			return err
		}
		end = r.begin("cache.put")
		err = st.Put(benchTraceKind, w.traceKey(app), buf.Bytes())
		r.count(uint64(buf.Len()))
		end()
		if err != nil {
			return err
		}
	}
	for _, s := range w.sweeps {
		specs, _ := exp.SweepSpecs(s.Name)
		for _, ac := range s.Apps {
			for i, col := range ac.Cols {
				end := r.begin("cache.put")
				exp.CellCachePut(st, addrs[ac.App], specs[i], col.Breakdown, col.Instructions)
				end()
			}
		}
	}
	return st.Close()
}

// direct reads what a warm pass reads: each trace entry, decoded and
// addressed by content, then every cell of the five sweeps by that
// address.
func (w *sweepWarm) direct(r *recorder) (result, error) {
	reg := obs.NewRegistry()
	res, err := measure(func() (outputs, error) {
		end := r.begin("cache.open")
		st, err := cache.Open(w.storeDir(), cache.Options{Version: dynsched.Version, Metrics: reg})
		end()
		if err != nil {
			return outputs{}, err
		}
		var out outputs
		out.Sweeps = make([]sweep, len(warmSweeps))
		for i, s := range warmSweeps {
			out.Sweeps[i].Name = s.name
		}
		for _, app := range apps.Names() {
			end := r.begin("cache.get")
			payload, ok := st.Get(benchTraceKind, w.traceKey(app))
			end()
			if !ok {
				return outputs{}, fmt.Errorf("%s: trace missed the warm store", app)
			}
			end = r.begin("trace.decode")
			tr, err := trace.ReadTrace(bytes.NewReader(payload))
			if err == nil {
				tr = tr.Freeze()
				r.count(uint64(tr.Len()))
			}
			end()
			if err != nil {
				return outputs{}, fmt.Errorf("%s: %w", app, err)
			}
			end = r.begin("trace.addr")
			h := fnv.New64a()
			h.Write(payload)
			addr := fmt.Sprintf("%016x", h.Sum64())
			end()
			r.add("trace.events", uint64(tr.Len()))
			r.add("trace.bytes", uint64(len(payload)))
			g := w.gens[app]
			g.Events = tr.Len()
			out.Gens = append(out.Gens, g)
			for i, s := range warmSweeps {
				specs, _ := exp.SweepSpecs(s.name)
				cols := make([]exp.Column, len(specs))
				for j, spec := range specs {
					end := r.begin("cache.get")
					b, instr, ok := exp.CellCacheGet(st, addr, spec)
					end()
					if !ok {
						return outputs{}, fmt.Errorf("%s %s %s: cell missed the warm store", app, s.name, spec.Label)
					}
					if cols[j], err = exp.SpecColumn(spec, b, instr); err != nil {
						return outputs{}, err
					}
				}
				exp.NormalizeColumns(cols)
				out.Sweeps[i].Apps = append(out.Sweeps[i].Apps, exp.AppColumns{App: app, Cols: cols})
			}
		}
		end = r.begin("cache.close")
		err = st.Close()
		end()
		return out, err
	})
	snap := reg.Snapshot()
	r.add("cache.hits", snap.Counters["cache.hits"])
	r.add("cache.read_bytes", snap.Counters["cache.bytes_read"])
	return res, err
}
