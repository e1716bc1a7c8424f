package dynsched

// One benchmark per table and figure of the paper's evaluation, plus
// benches for the building blocks (trace generation, each processor model)
// and the ablation experiments. Each benchmark regenerates its artifact
// from cached traces; custom metrics report the reproduced headline numbers
// (e.g. the fraction of read latency hidden) alongside the timing.
//
// Benchmarks run at small scale so `go test -bench=.` completes quickly;
// the cmd/hidelat tool regenerates the same artifacts at medium or paper
// scale.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"dynsched/internal/apps"
	"dynsched/internal/consistency"
	"dynsched/internal/cpu"
	"dynsched/internal/exp"
	"dynsched/internal/trace"
)

var (
	benchOnce sync.Once
	benchExp  *exp.Experiment
	benchErr  error
)

// benchHarness returns a shared harness with all five traces generated.
func benchHarness(b *testing.B) *exp.Experiment {
	b.Helper()
	benchOnce.Do(func() {
		opts := exp.DefaultOptions()
		opts.Scale = apps.ScaleSmall
		benchExp = exp.New(opts)
		for _, app := range benchExp.Apps() {
			if _, err := benchExp.Run(app); err != nil {
				benchErr = err
				return
			}
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchExp
}

// BenchmarkTraceGeneration measures the execution-driven multiprocessor
// simulation that produces each application's annotated trace (§3.2).
func BenchmarkTraceGeneration(b *testing.B) {
	b.ReportAllocs()
	for _, app := range apps.Names() {
		b.Run(app, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := exp.DefaultOptions()
				opts.Scale = apps.ScaleSmall
				opts.Apps = []string{app}
				e := exp.New(opts)
				run, err := e.Run(app)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(run.Trace.Len()), "instrs")
			}
		})
	}
}

// BenchmarkTable1 regenerates Table 1 (data reference statistics).
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	e := benchHarness(b)
	for i := 0; i < b.N; i++ {
		rows, err := e.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (synchronization statistics).
func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	e := benchHarness(b)
	for i := 0; i < b.N; i++ {
		if _, err := e.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates Table 3 (branch behaviour under the paper's
// 2048-entry 4-way BTB).
func BenchmarkTable3(b *testing.B) {
	b.ReportAllocs()
	e := benchHarness(b)
	for i := 0; i < b.N; i++ {
		rows, err := e.Table3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Branches.PctCorrect, "%correct(mp3d)")
	}
}

// replaySpecs replays specs over one trace, cell by cell, and normalizes
// the columns against BASE.
func replaySpecs(b *testing.B, tr *trace.Trace, specs []exp.CellSpec) []exp.Column {
	cols := make([]exp.Column, len(specs))
	for i, spec := range specs {
		var err error
		if cols[i], err = exp.RunSpec(tr, spec, nil); err != nil {
			b.Fatal(err)
		}
	}
	exp.NormalizeColumns(cols)
	return cols
}

// BenchmarkFigure3 regenerates Figure 3 per application: the full
// static/dynamic × SC/PC/RC matrix.
func BenchmarkFigure3(b *testing.B) {
	b.ReportAllocs()
	e := benchHarness(b)
	for _, app := range e.Apps() {
		b.Run(app, func(b *testing.B) {
			b.ReportAllocs()
			run, err := e.Run(app)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				cols := replaySpecs(b, run.Trace, exp.Figure3Specs())
				last := cols[len(cols)-1] // RC-DS256
				b.ReportMetric(last.Normalized, "norm%RC-DS256")
			}
		})
	}
}

// BenchmarkFigure4 regenerates Figure 4 per application: the perfect-
// prediction and ignored-dependence isolation sweep.
func BenchmarkFigure4(b *testing.B) {
	b.ReportAllocs()
	e := benchHarness(b)
	for _, app := range e.Apps() {
		b.Run(app, func(b *testing.B) {
			b.ReportAllocs()
			run, err := e.Run(app)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				replaySpecs(b, run.Trace, exp.Figure4Specs())
			}
		})
	}
}

// BenchmarkSummary regenerates the §7 read-latency-hidden summary and
// reports the window-64 average the paper quotes as 81%.
func BenchmarkSummary(b *testing.B) {
	b.ReportAllocs()
	e := benchHarness(b)
	for i := 0; i < b.N; i++ {
		acs, err := e.Sweep(exp.WindowSweepSpecs(consistency.RC), nil)
		if err != nil {
			b.Fatal(err)
		}
		avg, _ := exp.SummarizeReadHidden(acs)
		b.ReportMetric(100*avg[16], "%hidden@16")
		b.ReportMetric(100*avg[32], "%hidden@32")
		b.ReportMetric(100*avg[64], "%hidden@64")
	}
}

// BenchmarkReadMissDelays regenerates the §4.1.3 issue-delay diagnostic.
func BenchmarkReadMissDelays(b *testing.B) {
	b.ReportAllocs()
	e := benchHarness(b)
	run, err := e.Run("pthor")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		h, err := exp.ReadMissDelays(run.Trace)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*h.FractionAbove(40), "%delayed>40(pthor)")
	}
}

// BenchmarkLatency100 regenerates the §4.2 100-cycle-latency window sweep.
func BenchmarkLatency100(b *testing.B) {
	b.ReportAllocs()
	opts := exp.DefaultOptions()
	opts.Scale = apps.ScaleSmall
	opts.MissPenalty = 100
	e := exp.New(opts)
	specs, _ := exp.SweepSpecs("latency100")
	for i := 0; i < b.N; i++ {
		acs, err := e.Sweep(specs, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(acs) != 5 {
			b.Fatal("missing apps")
		}
	}
}

// BenchmarkIssue4 regenerates the §4.2 four-wide-issue window sweep.
func BenchmarkIssue4(b *testing.B) {
	b.ReportAllocs()
	e := benchHarness(b)
	for i := 0; i < b.N; i++ {
		if _, err := e.Issue4All(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTango16 measures the 16-processor execution-driven simulation
// (package tango) generating one application trace end to end — the hot
// loop behind every trace the harness consumes. Its ready heap orders only
// loads, stores, synchronization and halts; private ALU and branch
// instructions run ahead of it in their processor's turn.
func BenchmarkTango16(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts := exp.DefaultOptions()
		opts.Scale = apps.ScaleSmall
		opts.NumCPUs = 16
		opts.Apps = []string{"mp3d"}
		e := exp.New(opts)
		run, err := e.Run("mp3d")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(run.Trace.Len()), "instrs")
	}
}

// BenchmarkHighLatencySweep measures a DS window-64 RC replay at rising
// miss penalties, with the event-driven time skip on (the default) and
// forced off. The skip's payoff grows with the penalty: the longer each
// memory stall, the more quiet cycles the replay jumps over in bulk, so
// the skip arm's cost tracks the event count while the noskip arm's cost
// tracks simulated cycles.
func BenchmarkHighLatencySweep(b *testing.B) {
	b.ReportAllocs()
	for _, penalty := range []uint32{50, 200, 1000} {
		opts := exp.DefaultOptions()
		opts.Scale = apps.ScaleSmall
		opts.MissPenalty = penalty
		opts.Apps = []string{"ocean"}
		e := exp.New(opts)
		run, err := e.Run("ocean")
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name   string
			noskip bool
		}{{"skip", false}, {"noskip", true}} {
			b.Run(fmt.Sprintf("lat%d/%s", penalty, mode.name), func(b *testing.B) {
				b.ReportAllocs()
				cfg := cpu.Config{Model: consistency.RC, Window: 64, NoTimeSkip: mode.noskip}
				for i := 0; i < b.N; i++ {
					if _, err := cpu.RunDS(run.Trace, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkProcessorModels measures each timing model replaying the same
// trace — the cost of one Figure 3 bar.
func BenchmarkProcessorModels(b *testing.B) {
	b.ReportAllocs()
	e := benchHarness(b)
	run, err := e.Run("ocean")
	if err != nil {
		b.Fatal(err)
	}
	tr := run.Trace
	b.Run("BASE", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cpu.RunBase(tr)
		}
	})
	b.Run("SSBR", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cpu.RunSSBR(tr, cpu.Config{Model: consistency.RC}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SS", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cpu.RunSS(tr, cpu.Config{Model: consistency.RC}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, w := range exp.Windows {
		b.Run(fmt.Sprintf("DS-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cpu.RunDS(tr, cpu.Config{Model: consistency.RC, Window: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblations measures the design-choice sweeps called out in
// DESIGN.md: the store-buffer depth, MSHR count and BTB size ablations on
// MP3D, and the WO model.
func BenchmarkAblations(b *testing.B) {
	b.ReportAllocs()
	e := benchHarness(b)
	b.Run("ablate", func(b *testing.B) {
		b.ReportAllocs()
		opts := e.Options()
		opts.Apps = []string{"mp3d"}
		mp3d := exp.New(opts)
		if _, err := mp3d.RunAll(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mp3d.Sweep(exp.AblationSpecs(), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("weak-ordering", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.WOAll(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMultipleContexts measures the §5 competitive-technique model:
// one recording multiprocessor run serving both switch penalties.
func BenchmarkMultipleContexts(b *testing.B) {
	b.ReportAllocs()
	e := benchHarness(b)
	for i := 0; i < b.N; i++ {
		rows, err := exp.MultipleContexts("lu", e.Options())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rows[len(rows)-1].Result.Utilization, "%util@8ctx,penalty16")
	}
}

// BenchmarkResched measures the compiler-rescheduling comparison.
func BenchmarkResched(b *testing.B) {
	b.ReportAllocs()
	e := benchHarness(b)
	for i := 0; i < b.N; i++ {
		rows, err := e.ReschedAll()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkSCPrefetch measures the reference-[8] prefetch sweep.
func BenchmarkSCPrefetch(b *testing.B) {
	b.ReportAllocs()
	e := benchHarness(b)
	for i := 0; i < b.N; i++ {
		if _, err := e.SCPrefetchAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContention measures the finite-bandwidth trace regeneration.
func BenchmarkContention(b *testing.B) {
	b.ReportAllocs()
	opts := exp.DefaultOptions()
	opts.Scale = apps.ScaleSmall
	for i := 0; i < b.N; i++ {
		rows, err := exp.Contention("mp3d", opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].AvgMissLat, "avgMissLat@25")
	}
}

// BenchmarkTraceSerialization measures trace save/load round trips.
func BenchmarkTraceSerialization(b *testing.B) {
	b.ReportAllocs()
	e := benchHarness(b)
	run, err := e.Run("ocean")
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := run.Trace.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := trace.ReadTrace(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}
