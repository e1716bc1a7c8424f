package exp

// Golden regression net: the whole stack — application builders, the
// multiprocessor simulation, the cache model, and the DS processor — is
// deterministic, so these exact small-scale values pin its behaviour. All
// floating point inside the simulation runs through isa.EvalALU one
// operation at a time (no fused multiply-add), so the numbers are
// platform-independent.
//
// If a deliberate model change shifts them, regenerate with:
//
//	opts := exp.DefaultOptions(); opts.Scale = apps.ScaleSmall
//	e := exp.New(opts)
//	for each app: print trace.Len, Data().ReadMisses/WriteMisses,
//	    RunBase total, RunDS(RC, 64) total
//
// and update the table alongside the change that justified it.

import (
	"strings"
	"testing"

	"dynsched/internal/apps"
	"dynsched/internal/consistency"
	"dynsched/internal/cpu"
	"dynsched/internal/golden"
)

var smallGolden = []struct {
	app         string
	instrs      int
	readMisses  uint64
	writeMisses uint64
	baseTotal   uint64
	ds64Total   uint64
}{
	{"mp3d", 1338, 62, 57, 12230, 6178},
	{"lu", 3755, 145, 24, 19938, 9678},
	{"pthor", 3368, 139, 81, 19255, 9899},
	{"locus", 1712, 67, 55, 12754, 6561},
	{"ocean", 5068, 182, 84, 29757, 15024},
}

func TestGoldenSmallScale(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = apps.ScaleSmall
	e := New(opts)
	for _, g := range smallGolden {
		g := g
		t.Run(g.app, func(t *testing.T) {
			run, err := e.Run(g.app)
			if err != nil {
				t.Fatal(err)
			}
			if run.Trace.Len() != g.instrs {
				t.Errorf("trace length = %d, want %d", run.Trace.Len(), g.instrs)
			}
			d := run.Trace.Data()
			if d.ReadMisses != g.readMisses || d.WriteMisses != g.writeMisses {
				t.Errorf("misses = %d/%d, want %d/%d", d.ReadMisses, d.WriteMisses, g.readMisses, g.writeMisses)
			}
			base := cpu.RunBase(run.Trace)
			if base.Breakdown.Total() != g.baseTotal {
				t.Errorf("BASE total = %d, want %d", base.Breakdown.Total(), g.baseTotal)
			}
			ds, err := cpu.RunDS(run.Trace, cpu.Config{Model: consistency.RC, Window: 64})
			if err != nil {
				t.Fatal(err)
			}
			if ds.Breakdown.Total() != g.ds64Total {
				t.Errorf("RC-DS64 total = %d, want %d", ds.Breakdown.Total(), g.ds64Total)
			}
		})
	}
}

// TestAblationGolden pins the store-buffer, MSHR and BTB ablation tables
// (what `hidelat ablate` prints) byte for byte. Regenerate with
//
//	go test ./internal/exp -run TestAblationGolden -update
func TestAblationGolden(t *testing.T) {
	e := smallExp(t, "mp3d", "lu")
	e.opts.Workers = 2
	acs, err := e.Sweep(AblationSpecs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, ac := range acs {
		out.WriteString(FormatAblations(ac.Cols, func(title, _ string) string { return title + ", " + ac.App }))
	}
	golden.Check(t, "ablation.golden", []byte(out.String()))
}
