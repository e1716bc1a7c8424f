// Command perfbench is dynsched's benchmark: paper-scale Figure 3 from
// nothing (fig3-cold), the analyze and timeline sweeps with observers
// attached (analyze-replay), and five column sweeps served from a warm
// result cache (sweep-warm).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fig3-cold --seed 0 --seconds 20 --trace 0
//
// With --trace 0 it times the workload through the exp entry points hidelat
// uses and prints the end-to-end metrics. With --trace 1 it runs the same
// work serially through the layers' own functions with a span around each
// call, and prints the per-layer metrics derived from the spans; the spans
// are written to <out>/spans-<workload>-seed<seed>.json as Chrome
// trace-event JSON. Either way it checks every pass's simulated outputs
// against each other and against the hashes in expected.json, and exits 1
// on any mismatch. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// The seed selects the replayed processor: tracecpu = 1 + seed mod 15.
// Seed 0 gives processor 1, hidelat's default.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"dynsched/internal/apps"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// Set-up repeats up to setupReps times, but stops once the set-ups so far
// have taken setupBudget: sweep-warm's single cold set-up costs more than
// a run can afford twice.
const (
	setupReps   = 3
	setupBudget = 10 * time.Second
)

// units gives every metric's unit. The names and units match BENCHMARK.json.
var units = map[string]string{
	"wall_s":             "s",
	"sim_mips":           "MIPS",
	"setup_s":            "s",
	"retained_heap_mb":   "MB",
	"read_hidden_err_pp": "pp",

	"tango.gen_s":        "s",
	"tango.ns_per_instr": "ns",
	"tango.sim_instr":    "count",
	"tango.sim_cycles":   "count",
	"mem.misses":         "count",

	"trace.events":              "count",
	"trace.bytes_per_event":     "B/event",
	"trace.encode_ns_per_event": "ns",
	"trace.decode_ns_per_event": "ns",
	"cpu.base_s":                "s",
	"cpu.static_s":              "s",
	"cpu.ds_s":                  "s",
	"cpu.ds_ns_per_instr":       "ns",
	"cpu.static_ns_per_instr":   "ns",
	"cpu.replayed_instr":        "count",
	"cpu.sim_cycles":            "count",
	"cpu.allocs_per_cell":       "count",
	"critpath.overhead_pct":     "%",
	"obs.timeline_overhead_pct": "%",
	"obs.metrics_overhead_pct":  "%",
	"obs.pipe_overhead_pct":     "%",
	"obs.pipe_alloc_mb":         "MB",
	"cache.get_ops":             "count",
	"cache.get_s":               "s",
	"cache.hit_ratio":           "ratio",
	"cache.read_mb":             "MB",
	"cache.put_ops":             "count",
	"cache.put_s":               "s",
	"exp.self_s":                "s",
	"exp.parallel_eff":          "ratio",
	"exp.alloc_mb":              "MB",
	"bench.trace_overhead_pct":  "%",
}

//go:embed expected.json
var embeddedExpected []byte

// expectedFile records the output hashes the gate checks against, by
// scale, workload and traced processor, and the seeds used while writing
// the benchmark and held out from it.
type expectedFile struct {
	DevSeed     int64                                   `json:"dev_seed"`
	HeldOutSeed int64                                   `json:"held_out_seed"`
	Hashes      map[string]map[string]map[string]string `json:"hashes"`
}

func (x expectedFile) hash(scale apps.Scale, workload string, traceCPU int) string {
	return x.Hashes[scale.String()][workload][strconv.Itoa(traceCPU)]
}

// traceCPUForSeed maps a workload seed to the replayed processor, 1..15.
func traceCPUForSeed(seed int64) int {
	return 1 + int(((seed%15)+15)%15)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "fig3-cold, analyze-replay or sweep-warm")
	seed := fs.Int64("seed", 0, "workload seed; selects the replayed processor")
	seconds := fs.Float64("seconds", 20, "how long to repeat the timed pass")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run and per-layer metrics")
	scaleName := fs.String("scale", "paper", "problem scale: small, medium or paper")
	expectedPath := fs.String("expected", "", "expected-hash file (default: the copy built into the benchmark)")
	outDir := fs.String("out", ".bench_build", "directory for the span trace and working files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if *traced != 0 && *traced != 1 {
		return fail(fmt.Errorf("--trace must be 0 or 1, got %d", *traced))
	}
	scale, err := apps.ParseScale(*scaleName)
	if err != nil {
		return fail(err)
	}
	data := embeddedExpected
	if *expectedPath != "" {
		if data, err = os.ReadFile(*expectedPath); err != nil {
			return fail(err)
		}
	}
	var want expectedFile
	if err := json.Unmarshal(data, &want); err != nil {
		return fail(fmt.Errorf("expected hashes: %w", err))
	}
	c := &config{scale: scale, traceCPU: traceCPUForSeed(*seed)}
	w, err := newWorkload(*name, c)
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fail(err)
	}
	if c.dir, err = os.MkdirTemp(*outDir, "perfbench-"); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(c.dir)

	g := &gate{want: want.hash(scale, *name, c.traceCPU), log: stdout}
	if *name == "sweep-warm" {
		g.wantFig3 = want.hash(scale, "fig3-cold", c.traceCPU)
	}
	fmt.Fprintf(stdout, "perfbench: workload %s, seed %d, tracecpu %d, scale %s, %d workers\n",
		*name, *seed, c.traceCPU, scale, benchWorkers)
	if g.want == "" {
		fmt.Fprintf(stdout, "perfbench: no recorded hash for this scale and processor; checking passes against each other only\n")
	}

	var m map[string]float64
	if *traced == 0 {
		m, err = endToEnd(w, *seconds, g, stdout)
	} else {
		var rec *recorder
		m, rec, err = layers(w, g, stdout)
		if rec != nil {
			path := filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
			if werr := writeSpans(rec, path); werr != nil && err == nil {
				err = werr
			}
		}
	}
	if err != nil {
		return fail(err)
	}
	for _, p := range g.problems {
		fmt.Fprintf(stderr, "perfbench: INCORRECT: %s\n", p)
	}
	if err := printResult(stdout, g, m); err != nil {
		return fail(err)
	}
	if len(g.problems) > 0 {
		return 1
	}
	return 0
}

// gate is the correctness check: every pass of a run must produce the
// same outputs as the first, that must equal the recorded hash, no cell
// may fail, and sweep-warm's Figure 3 cells must equal fig3-cold's.
type gate struct {
	want, wantFig3 string
	log            io.Writer

	first             string
	attempted, failed int
	problems          []string
}

func (g *gate) check(what string, r result) {
	if r.Hash == "" {
		return
	}
	fmt.Fprintf(g.log, "perfbench: %s: %d cells, outputs %s", what, r.Cells, r.Hash)
	if r.Wall > 0 {
		fmt.Fprintf(g.log, ", %.3f s", r.Wall.Seconds())
	}
	fmt.Fprintln(g.log)
	g.attempted += r.Cells
	g.failed += r.Failed
	if g.first == "" {
		g.first = r.Hash
	}
	switch {
	case r.Failed > 0:
		g.problems = append(g.problems, fmt.Sprintf("%s: %d of %d cells failed", what, r.Failed, r.Cells))
	case r.Hash != g.first:
		g.problems = append(g.problems, fmt.Sprintf("%s: outputs %s differ from the first pass's %s", what, r.Hash, g.first))
	case g.want != "" && r.Hash != g.want:
		g.problems = append(g.problems, fmt.Sprintf("%s: outputs %s, expected %s", what, r.Hash, g.want))
	case g.wantFig3 != "" && r.Fig3Hash != g.wantFig3:
		g.problems = append(g.problems, fmt.Sprintf("%s: Figure 3 cells %s differ from fig3-cold's %s", what, r.Fig3Hash, g.wantFig3))
	}
}

// endToEnd sets the workload up, then repeats its timed pass until seconds
// have passed, and reports medians over the passes.
func endToEnd(w workload, seconds float64, g *gate, log io.Writer) (map[string]float64, error) {
	var setups []float64
	for total := 0.0; len(setups) < setupReps && total < setupBudget.Seconds(); {
		runtime.GC()
		start := time.Now()
		r, err := w.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		s := time.Since(start).Seconds()
		setups = append(setups, s)
		total += s
		g.check(fmt.Sprintf("set-up %d", len(setups)), r)
	}
	var walls, heaps []float64
	var last result
	for start := time.Now(); len(walls) == 0 || time.Since(start).Seconds() < seconds; {
		// Settle the collector so each pass starts from the same live heap.
		runtime.GC()
		r, err := w.pass(benchWorkers)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", len(walls)+1, err)
		}
		walls = append(walls, r.Wall.Seconds())
		heaps = append(heaps, float64(r.Retained)/1e6)
		g.check(fmt.Sprintf("pass %d", len(walls)), r)
		last = r
	}
	if math.IsNaN(last.HiddenErrPP) {
		return nil, fmt.Errorf("the workload has no RC-DS cells to compare with the paper")
	}
	wall := median(walls)
	fmt.Fprintf(log, "perfbench: wall_s is the median of %d passes %v; setup_s the median of %d set-ups %v\n",
		len(walls), walls, len(setups), setups)
	return map[string]float64{
		"wall_s":             wall,
		"sim_mips":           float64(last.Instr) / wall / 1e6,
		"setup_s":            median(setups),
		"retained_heap_mb":   median(heaps),
		"read_hidden_err_pp": last.HiddenErrPP,
	}, nil
}

// layers runs the traced measurement: one timed pass through exp at
// benchWorkers and one at a single worker, then the serial layer
// direct run untraced and traced, and for analyze-replay the observer arms.
func layers(w workload, g *gate, log io.Writer) (map[string]float64, *recorder, error) {
	r, err := w.setup()
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	g.check("set-up", r)
	par, err := w.pass(benchWorkers)
	if err != nil {
		return nil, nil, err
	}
	g.check(fmt.Sprintf("pass at %d workers", benchWorkers), par)
	ser, err := w.pass(1)
	if err != nil {
		return nil, nil, err
	}
	g.check("pass at 1 worker", ser)

	rec := newRecorder()
	end := rec.root("setup")
	err = w.directSetup(rec)
	end()
	if err != nil {
		return nil, rec, fmt.Errorf("direct set-up: %w", err)
	}
	bare, err := w.direct(nil)
	if err != nil {
		return nil, rec, fmt.Errorf("untraced direct run: %w", err)
	}
	g.check("untraced direct run", bare)
	end = rec.root("run")
	traced, err := w.direct(rec)
	end()
	if err != nil {
		return nil, rec, fmt.Errorf("traced direct run: %w", err)
	}
	g.check("traced direct run", traced)
	if a, ok := w.(interface{ arms(*recorder) error }); ok {
		end = rec.root("arms")
		err = a.arms(rec)
		end()
		if err != nil {
			return nil, rec, fmt.Errorf("observer arms: %w", err)
		}
	}
	fmt.Fprintf(log, "perfbench: layer sum %.3f s of traced wall %.3f s (untraced %.3f s); exp at 1 worker %.3f s, at %d workers %.3f s\n",
		layerSum(rec).Seconds(), traced.Wall.Seconds(), bare.Wall.Seconds(), ser.Wall.Seconds(), benchWorkers, par.Wall.Seconds())
	return layerMetrics(rec, par, ser, bare, traced), rec, nil
}

// layerNames are the span prefixes of the program's layers.
var layerNames = []string{"tango", "trace", "cpu", "obs", "cache"}

// layerSum is the traced run's busy time: its layers' self times summed.
func layerSum(rec *recorder) time.Duration {
	var sum time.Duration
	for _, l := range layerNames {
		sum += rec.stats("run", l).Self
	}
	return sum
}

// layerMetrics derives the per-layer metrics from the spans. Times and
// work counts describe the traced run; cache puts and trace encoding
// happen only in set-up and are taken from there. exp.alloc_mb is the
// whole operation's allocation through exp at one worker, not a
// difference of spans: how often sync.Pool buffers are dropped depends on
// how many collections run, so layer allocations do not add up across
// runs that hold different live heaps.
func layerMetrics(rec *recorder, par, ser, bare, traced result) map[string]float64 {
	run := func(prefix string) layerStat { return rec.stats("run", prefix) }
	sum := layerSum(rec)
	nsPer := func(st layerStat) float64 { return ratio(float64(st.Self.Nanoseconds()), float64(st.Count)) }
	tango, cpuAll := run("tango"), run("cpu")
	ds, static, base := run("cpu.ds"), run("cpu.static"), run("cpu.base")
	enc, dec := rec.stats("setup", "trace.encode"), run("trace.decode")
	get, put := run("cache.get"), rec.stats("setup", "cache.put")
	none := rec.stats("arms", "arm.none")
	overhead := func(arm string) float64 {
		st := rec.stats("arms", "arm."+arm)
		return 100 * ratio(st.Self.Seconds()-none.Self.Seconds(), none.Self.Seconds())
	}
	pipe := rec.stats("arms", "arm.pipe")
	bytesPerEvent := ratio(float64(rec.counter("setup", "trace.bytes")+rec.counter("run", "trace.bytes")),
		float64(enc.Count+dec.Count))
	return map[string]float64{
		"tango.gen_s":        tango.Self.Seconds(),
		"tango.ns_per_instr": nsPer(tango),
		"tango.sim_instr":    float64(tango.Count),
		"tango.sim_cycles":   float64(rec.counter("run", "tango.cycles")),
		"mem.misses":         float64(rec.counter("run", "mem.misses")),

		"trace.events":              float64(rec.counter("run", "trace.events")),
		"trace.bytes_per_event":     bytesPerEvent,
		"trace.encode_ns_per_event": nsPer(enc),
		"trace.decode_ns_per_event": nsPer(dec),

		"cpu.base_s":              base.Self.Seconds(),
		"cpu.static_s":            static.Self.Seconds(),
		"cpu.ds_s":                ds.Self.Seconds(),
		"cpu.ds_ns_per_instr":     nsPer(ds),
		"cpu.static_ns_per_instr": nsPer(static),
		"cpu.replayed_instr":      float64(cpuAll.Count),
		"cpu.sim_cycles":          float64(rec.counter("run", "cpu.cycles")),
		"cpu.allocs_per_cell":     ratio(float64(cpuAll.Objs), float64(cpuAll.Ops)),

		"critpath.overhead_pct":     overhead("critpath"),
		"obs.timeline_overhead_pct": overhead("timeline"),
		"obs.metrics_overhead_pct":  overhead("metrics"),
		"obs.pipe_overhead_pct":     overhead("pipe"),
		"obs.pipe_alloc_mb":         ratio(float64(pipe.Alloc)-float64(none.Alloc), float64(pipe.Ops)) / 1e6,

		"cache.get_ops":   float64(get.Ops),
		"cache.get_s":     get.Self.Seconds(),
		"cache.hit_ratio": ratio(float64(rec.counter("run", "cache.hits")), float64(get.Ops)),
		"cache.read_mb":   float64(rec.counter("run", "cache.read_bytes")) / 1e6,
		"cache.put_ops":   float64(put.Ops),
		"cache.put_s":     put.Self.Seconds(),

		"exp.self_s":       ser.Wall.Seconds() - sum.Seconds(),
		"exp.parallel_eff": ratio(sum.Seconds(), benchWorkers*par.Wall.Seconds()),
		"exp.alloc_mb":     float64(ser.Alloc) / 1e6,

		"bench.trace_overhead_pct": 100 * ratio(traced.Wall.Seconds()-bare.Wall.Seconds(), bare.Wall.Seconds()),
	}
}

// ratio is a/b, or 0 when the layer did no work (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func writeSpans(rec *recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printResult prints the metrics one per line, then the result object as
// the last line.
func printResult(out io.Writer, g *gate, m map[string]float64) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(g.problems) == 0, Attempted: g.attempted, Failed: g.failed, Metrics: map[string]metric{}}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		unit, ok := units[name]
		if !ok {
			return fmt.Errorf("metric %s has no unit", name)
		}
		v := m[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", name, v)
		}
		res.Metrics[name] = metric{v, unit}
		fmt.Fprintf(out, "%-28s %14.6g %s\n", name, v, unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
