package exp

import (
	"fmt"
	"sort"
	"strings"

	"dynsched/internal/apps"
	"dynsched/internal/consistency"
	"dynsched/internal/cpu"
	"dynsched/internal/isa"
	"dynsched/internal/mem"
	"dynsched/internal/resched"
	"dynsched/internal/tango"
	"dynsched/internal/vm"
)

// AppColumns pairs an application with its figure columns.
type AppColumns struct {
	App  string
	Cols []Column
}

// Figure3All runs Figure 3 for every application: traces generate
// concurrently, then the full apps × configurations matrix fans out across
// Options.Workers.
func (e *Experiment) Figure3All() ([]AppColumns, error) {
	return e.Sweep(Figure3Specs(), nil)
}

// Figure4All runs Figure 4 for every application.
func (e *Experiment) Figure4All() ([]AppColumns, error) {
	return e.Sweep(Figure4Specs(), nil)
}

// Issue4All runs the §4.2 multiple-issue experiment: the RC window sweep
// with a decode/issue width of four.
func (e *Experiment) Issue4All() ([]AppColumns, error) {
	return e.Sweep(Issue4Specs(), nil)
}

// SCPrefetchAll evaluates the non-binding-prefetch technique of reference
// [8] (paper §6) under sequential consistency: the window sweep with an
// otherwise idle cache port prefetching the oldest consistency-blocked
// miss. The SC+PF columns can be compared against plain SC and RC from
// Figure 3.
func (e *Experiment) SCPrefetchAll() ([]AppColumns, error) {
	return e.Sweep(SCPrefetchSpecs(), nil)
}

// MissDistanceReport renders the §4.1.3 distance-between-read-misses
// distributions ("90% of the read misses are a distance of 20-30
// instructions apart" for LU).
func (e *Experiment) MissDistanceReport() (string, error) {
	lines, err := perApp(e, func(app string, run *AppRun) (string, error) {
		return fmt.Sprintf("%-6s %s\n", strings.ToUpper(app), run.Trace.ReadMissDistances()), nil
	})
	if err != nil {
		return "", err
	}
	return "Distance between consecutive read misses, in instructions (§4.1.3)\n" + strings.Join(lines, ""), nil
}

// WOAll evaluates the weak ordering model (described in §2.1 but not
// plotted in the paper) across the window sweep — an extension experiment.
func (e *Experiment) WOAll() ([]AppColumns, error) {
	return e.Sweep(WindowSweepSpecs(consistency.WO), nil)
}

// FormatAppColumns renders one figure for all applications.
func FormatAppColumns(title string, acs []AppColumns) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	for _, ac := range acs {
		sb.WriteString("\n")
		sb.WriteString(FormatColumns(strings.ToUpper(ac.App), ac.Cols))
	}
	return sb.String()
}

// FormatAblations renders one application's ablate columns (in
// AblationSpecs order) as one table per group, each against the shared
// BASE column. heading names a table from its group's title and fixed
// configuration.
func FormatAblations(cols []Column, heading func(title, config string) string) string {
	var sb strings.Builder
	next := 1
	for _, g := range ablations {
		group := append([]Column{cols[0]}, cols[next:next+len(g.specs)]...)
		sb.WriteString(FormatColumns(heading(g.title, g.config), group))
		next += len(g.specs)
	}
	return sb.String()
}

// FormatSummary renders the §7 read-latency-hidden summary.
func FormatSummary(avg map[int]float64, perApp map[string]map[int]float64) string {
	var sb strings.Builder
	sb.WriteString("Fraction of read latency hidden by dynamic scheduling under RC (§7)\n")
	sb.WriteString("(paper, 50-cycle latency: 33% at window 16, 63% at 32, 81% at 64)\n\n")
	apps := make([]string, 0, len(perApp))
	for a := range perApp {
		apps = append(apps, a)
	}
	sort.Strings(apps)
	sb.WriteString("window")
	for _, a := range apps {
		fmt.Fprintf(&sb, "\t%s", a)
	}
	sb.WriteString("\tAVG\n")
	for _, w := range Windows {
		fmt.Fprintf(&sb, "%d", w)
		for _, a := range apps {
			fmt.Fprintf(&sb, "\t%.0f%%", 100*perApp[a][w])
		}
		fmt.Fprintf(&sb, "\t%.0f%%\n", 100*avg[w])
	}
	return sb.String()
}

// DelayReport runs the read-miss delay diagnostic for every application.
func (e *Experiment) DelayReport() (string, error) {
	lines, err := perApp(e, func(app string, run *AppRun) (string, error) {
		h, err := ReadMissDelays(run.Trace)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%-6s misses=%-7d >40cy=%4.0f%%  >50cy=%4.0f%%  >10cy=%4.0f%%\n",
			strings.ToUpper(app), h.Total,
			100*h.FractionAbove(40), 100*h.FractionAbove(50), 100*h.FractionAbove(10)), nil
	})
	if err != nil {
		return "", err
	}
	return "Read-miss decode-to-issue delay, RC, window 64, perfect branch prediction (§4.1.3)\n" + strings.Join(lines, ""), nil
}

// MachineRow is one machine size of the processor-count sweep.
type MachineRow struct {
	App          string
	NumCPUs      int
	ReadMissRate float64 // per 1000 instructions, traced processor
	SyncFraction float64 // acquire stall share of BASE execution time
	BusyCycles   uint64  // traced processor's instruction count
}

// MachineSweep regenerates traces on 2-32 processor machines and reports
// how communication misses and synchronization overhead scale — context for
// the paper's fixed choice of 16 processors. The machine sizes simulate
// concurrently, bounded by base.Workers.
func MachineSweep(app string, base Options) ([]MachineRow, error) {
	var sizes []int
	for _, n := range []int{2, 4, 8, 16, 32} {
		// Small problem scales cannot always feed 32 processors; skip
		// machine sizes the application cannot be built for.
		if _, err := apps.Build(app, n, base.Scale); err == nil {
			sizes = append(sizes, n)
		}
	}
	return regenerate(app, base, len(sizes), func(i int, e *Experiment) { e.opts.NumCPUs = sizes[i] },
		func(i int, run *AppRun) (MachineRow, error) {
			d := run.Trace.Data()
			b := cpu.RunBase(run.Trace)
			return MachineRow{
				App:          app,
				NumCPUs:      sizes[i],
				ReadMissRate: d.Per1000(d.ReadMisses),
				SyncFraction: float64(b.Breakdown.Sync) / float64(b.Breakdown.Total()),
				BusyCycles:   d.BusyCycles,
			}, nil
		})
}

// regenerate runs fn over app's trace generated under each of n variants
// of base — vary adjusts variant i's fresh harness before it generates —
// concurrently, bounded by base.Workers, and returns the results in
// variant order.
func regenerate[T any](app string, base Options, n int, vary func(i int, e *Experiment), fn func(i int, run *AppRun) (T, error)) ([]T, error) {
	return collect(n, base.Workers, func(i int) (v T, err error) {
		opts := base
		opts.Apps = []string{app}
		e := New(opts)
		vary(i, e)
		run, err := e.Run(app)
		if err != nil {
			return v, err
		}
		return fn(i, run)
	})
}

// FormatMachines renders the processor-count sweep.
func FormatMachines(app string, rows []MachineRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Machine-size sweep, %s (communication and synchronization scaling)\n", strings.ToUpper(app))
	fmt.Fprintf(&sb, "%-8s %12s %14s %12s\n", "cpus", "busy cycles", "rd miss/1000", "sync frac")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8d %12d %14.1f %11.0f%%\n",
			r.NumCPUs, r.BusyCycles, r.ReadMissRate, 100*r.SyncFraction)
	}
	return sb.String()
}

// ContentionRow is one bandwidth setting of the memory-contention
// extension.
type ContentionRow struct {
	App           string
	IssueInterval uint32  // cycles between miss services (0 = unbounded)
	AvgMissLat    float64 // observed average read-miss latency
	BaseTotal     uint64
	DSTotal       uint64 // RC, window 64
}

// Contention re-generates traces under finite memory bandwidth and measures
// how much of the paper's headline result survives. The paper assumes
// unbounded bandwidth and calls its results "somewhat optimistic" (§5);
// this experiment quantifies that optimism. The bandwidth settings simulate
// concurrently, bounded by base.Workers.
func Contention(app string, base Options) ([]ContentionRow, error) {
	intervals := []uint32{0, 4, 10, 25}
	return regenerate(app, base, len(intervals), func(i int, e *Experiment) { e.opts.MemIssueInterval = intervals[i] },
		func(i int, run *AppRun) (ContentionRow, error) {
			var lat, misses uint64
			for j := range run.Trace.Events {
				ev := &run.Trace.Events[j]
				if ev.Instr.Op == isa.OpLd && ev.Miss {
					misses++
					lat += uint64(ev.Latency)
				}
			}
			avg := 0.0
			if misses > 0 {
				avg = float64(lat) / float64(misses)
			}
			baseRes := cpu.RunBase(run.Trace)
			dsRes, err := cpu.RunDS(run.Trace, cpu.Config{Model: consistency.RC, Window: 64})
			if err != nil {
				return ContentionRow{}, err
			}
			return ContentionRow{
				App: app, IssueInterval: intervals[i], AvgMissLat: avg,
				BaseTotal: baseRes.Breakdown.Total(), DSTotal: dsRes.Breakdown.Total(),
			}, nil
		})
}

// FormatContention renders the bandwidth ablation.
func FormatContention(app string, rows []ContentionRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Finite memory bandwidth, %s (miss service interval in cycles; paper-limitation extension)\n", strings.ToUpper(app))
	fmt.Fprintf(&sb, "%-10s %14s %12s %12s %10s\n", "interval", "avg miss lat", "BASE", "RC-DS64", "DS/BASE")
	for _, r := range rows {
		label := fmt.Sprintf("%d", r.IssueInterval)
		if r.IssueInterval == 0 {
			label = "inf bw"
		}
		fmt.Fprintf(&sb, "%-10s %14.1f %12d %12d %9.1f%%\n",
			label, r.AvgMissLat, r.BaseTotal, r.DSTotal,
			100*float64(r.DSTotal)/float64(r.BaseTotal))
	}
	return sb.String()
}

// MCRow is one configuration of the multiple-hardware-contexts comparison.
type MCRow struct {
	App           string
	Contexts      int
	SwitchPenalty int
	Result        cpu.MCResult
	// DSUtil is the utilization of the RC DS-64 processor on context 0's
	// trace, for comparison (busy / total).
	DSUtil float64
}

// switchPenalties are the context-switch costs the multiple-contexts
// comparison runs at.
var switchPenalties = []int{1, 16}

// MultipleContexts evaluates the §5 competitive technique: a switch-on-miss
// multithreaded processor running 1, 2, 4, and 8 contexts (the traces of
// processors 0..K-1 from the same multiprocessor run), at each switch
// penalty in turn. Utilization rises with contexts until synchronization
// and switch overhead dominate — the classic multiple-contexts trade-off —
// and the row set allows a direct comparison against dynamic scheduling's
// utilization on a single context. One multiprocessor simulation, recording
// every processor's trace, serves every penalty.
func MultipleContexts(app string, base Options) ([]MCRow, error) {
	base.fillDefaults()
	a, err := apps.Build(app, base.NumCPUs, base.Scale)
	if err != nil {
		return nil, err
	}
	cfg := tango.Config{
		NumCPUs:   base.NumCPUs,
		TraceCPU:  base.TraceCPU % base.NumCPUs,
		Mem:       mem.DefaultConfig(),
		RecordAll: true,
		Ctx:       base.Ctx,
	}
	cfg.Mem.MissPenalty = base.MissPenalty
	res, err := tango.Run(a.Progs, func(pm *vm.PagedMem) { a.Init(pm) }, cfg)
	if err != nil {
		return nil, err
	}

	ds, err := cpu.RunDS(res.Traces[0], cpu.Config{Model: consistency.RC, Window: 64})
	if err != nil {
		return nil, err
	}
	dsUtil := float64(ds.Breakdown.Busy) / float64(ds.Breakdown.Total())

	var rows []MCRow
	for _, penalty := range switchPenalties {
		for _, k := range []int{1, 2, 4, 8} {
			if k > len(res.Traces) {
				break
			}
			mc, err := cpu.RunMC(res.Traces[:k], penalty)
			if err != nil {
				return nil, err
			}
			rows = append(rows, MCRow{
				App: app, Contexts: k, SwitchPenalty: penalty, Result: mc, DSUtil: dsUtil,
			})
		}
	}
	return rows, nil
}

// FormatMC renders the multiple-contexts comparison, one table per switch
// penalty, and ends with a blank line.
func FormatMC(app string, rows []MCRow) string {
	var sb strings.Builder
	for i, r := range rows {
		if i == 0 || r.SwitchPenalty != rows[i-1].SwitchPenalty {
			fmt.Fprintf(&sb, "Multiple hardware contexts vs dynamic scheduling, %s (switch penalty %d; paper §5)\n",
				strings.ToUpper(app), r.SwitchPenalty)
			fmt.Fprintf(&sb, "%-10s %12s %12s %12s %14s\n", "contexts", "cycles", "switches", "utilization", "RC-DS64 util")
		}
		fmt.Fprintf(&sb, "%-10d %12d %12d %11.0f%% %13.0f%%\n",
			r.Contexts, r.Result.Breakdown.Total(), r.Result.Switches,
			100*r.Result.Utilization, 100*r.DSUtil)
	}
	sb.WriteString("\n")
	return sb.String()
}

// ReschedRow compares the SS processor on the original and compiler-
// rescheduled traces against the small-window DS processor — the paper's
// §7 future-work question: "such compiler rescheduling may allow dynamic
// processors with small windows or statically scheduled processors with
// non-blocking reads to effectively hide read latency with simpler
// hardware".
type ReschedRow struct {
	App           string
	Stats         resched.Stats // conservative scheduler statistics
	AggStats      resched.Stats // aggressive (global, oracle-alias) statistics
	BaseTotal     uint64
	SSOriginal    uint64
	SSRescheduled uint64 // conservative basic-block scheduling
	SSAggressive  uint64 // global scheduling with oracle alias analysis
	DS16          uint64
}

// ReschedAll evaluates compiler rescheduling for every application under RC.
// The per-application pipelines (reschedule, then four replays) run
// concurrently, bounded by Options.Workers.
func (e *Experiment) ReschedAll() ([]ReschedRow, error) {
	return perApp(e, func(app string, run *AppRun) (ReschedRow, error) {
		moved, st := resched.Reschedule(run.Trace, 0)
		aggMoved, aggSt := resched.RescheduleLevel(run.Trace, 64, resched.Aggressive)
		base := cpu.RunBase(run.Trace)
		ssO, err := cpu.RunSS(run.Trace, cpu.Config{Model: consistency.RC})
		if err != nil {
			return ReschedRow{}, err
		}
		ssR, err := cpu.RunSS(moved, cpu.Config{Model: consistency.RC})
		if err != nil {
			return ReschedRow{}, err
		}
		ssA, err := cpu.RunSS(aggMoved, cpu.Config{Model: consistency.RC})
		if err != nil {
			return ReschedRow{}, err
		}
		ds16, err := cpu.RunDS(run.Trace, cpu.Config{Model: consistency.RC, Window: 16})
		if err != nil {
			return ReschedRow{}, err
		}
		return ReschedRow{
			App: app, Stats: st, AggStats: aggSt,
			BaseTotal:     base.Breakdown.Total(),
			SSOriginal:    ssO.Breakdown.Total(),
			SSRescheduled: ssR.Breakdown.Total(),
			SSAggressive:  ssA.Breakdown.Total(),
			DS16:          ds16.Breakdown.Total(),
		}, nil
	})
}

// FormatResched renders the compiler-rescheduling comparison.
func FormatResched(rows []ReschedRow) string {
	var sb strings.Builder
	sb.WriteString("Compiler rescheduling of loads for the SS processor (RC; paper §5/§7 future work)\n")
	sb.WriteString("Totals normalized to BASE = 100.\n")
	fmt.Fprintf(&sb, "%-8s %10s %10s %10s %10s %12s %14s\n",
		"app", "SS", "SS+bb", "SS+global", "DS-16", "bb hoists", "global hoists")
	for _, r := range rows {
		pct := func(v uint64) float64 { return 100 * float64(v) / float64(r.BaseTotal) }
		fmt.Fprintf(&sb, "%-8s %9.1f%% %9.1f%% %9.1f%% %9.1f%% %12d %8d (%.0f)\n",
			r.App, pct(r.SSOriginal), pct(r.SSRescheduled), pct(r.SSAggressive), pct(r.DS16),
			r.Stats.Hoisted, r.AggStats.Hoisted, r.AggStats.AvgHoist)
	}
	return sb.String()
}

// CacheGeomRow is one row of the cache-geometry ablation.
type CacheGeomRow struct {
	CacheKB       int
	ReadMissRate  float64 // read misses per 1000 instructions
	WriteMissRate float64
	BaseTotal     uint64
	DSTotal       uint64 // RC, window 64
}

// AblationCacheSize regenerates the application's trace at several cache
// sizes and reports how the miss rates — and therefore the latency to hide —
// change. The paper fixes 64 KB ("large relative to the problem sizes ...
// the cache misses reported mainly reflect inherent communication misses");
// shrinking the cache adds capacity misses on top.
func AblationCacheSize(app string, base Options) ([]CacheGeomRow, error) {
	sizes := []int{8, 16, 32, 64, 128}
	return regenerate(app, base, len(sizes), func(i int, e *Experiment) { e.cacheBytes = uint64(sizes[i]) << 10 },
		func(i int, run *AppRun) (CacheGeomRow, error) {
			d := run.Trace.Data()
			baseRes := cpu.RunBase(run.Trace)
			dsRes, err := cpu.RunDS(run.Trace, cpu.Config{Model: consistency.RC, Window: 64})
			if err != nil {
				return CacheGeomRow{}, err
			}
			return CacheGeomRow{
				CacheKB:       sizes[i],
				ReadMissRate:  d.Per1000(d.ReadMisses),
				WriteMissRate: d.Per1000(d.WriteMisses),
				BaseTotal:     baseRes.Breakdown.Total(),
				DSTotal:       dsRes.Breakdown.Total(),
			}, nil
		})
}

// FormatCacheGeom renders the cache-size ablation.
func FormatCacheGeom(app string, rows []CacheGeomRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Cache-size ablation, %s (direct-mapped, 16 B lines, 50-cycle miss)\n", strings.ToUpper(app))
	fmt.Fprintf(&sb, "%-8s %14s %14s %12s %12s %8s\n", "cache", "rd miss/1000", "wr miss/1000", "BASE", "RC-DS64", "DS/BASE")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %14.1f %14.1f %12d %12d %7.1f%%\n",
			fmt.Sprintf("%dKB", r.CacheKB), r.ReadMissRate, r.WriteMissRate,
			r.BaseTotal, r.DSTotal, 100*float64(r.DSTotal)/float64(r.BaseTotal))
	}
	return sb.String()
}
