package tango

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"dynsched/internal/apps"
	"dynsched/internal/golden"
	"dynsched/internal/obs"
)

// goldenCycleBudget is a MaxCycles budget far above every small-scale run,
// so it never fires but keeps the budget checks on the scheduler's path.
const goldenCycleBudget = 1 << 30

// TestGenerationGolden pins the generator's output byte for byte: the
// FNV-64a of every processor's v3 trace under RecordAll, each processor's
// statistics, and the machine timeline sampled every 64 cycles, for each
// small-scale application. Any change to the interleaving of shared
// accesses, to a recorded annotation, or to when an instruction counts
// towards a timeline boundary shows up here.
func TestGenerationGolden(t *testing.T) {
	var out bytes.Buffer
	for _, name := range apps.ExtendedNames() {
		app, err := apps.Build(name, 16, apps.ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.RecordAll = true
		cfg.MaxCycles = goldenCycleBudget
		tl := obs.NewTimeline(6, 1<<16)
		cfg.Timeline = tl
		res, err := Run(app.Progs, app.Init, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tl.Interval() != 64 {
			t.Fatalf("%s: timeline decimated to %d-cycle interval", name, tl.Interval())
		}
		fmt.Fprintf(&out, "%s cycles=%d\n", name, res.Cycles)
		for i, tr := range res.Traces {
			addr, err := tr.ContentAddr()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%s cpu%02d events=%d fnv=%s %+v\n",
				name, i, tr.Len(), addr, res.CPUStats[i])
		}
		samples := tl.Samples()
		js, err := json.Marshal(samples)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(js)
		fmt.Fprintf(&out, "%s timeline samples=%d fnv=%016x\n", name, len(samples), h.Sum64())

		// Recording a single processor must produce the same trace and
		// statistics as recording all of them.
		one := DefaultConfig()
		one.MaxCycles = goldenCycleBudget
		res1, err := Run(app.Progs, app.Init, one)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(res1.Trace.Events, res.Traces[one.TraceCPU].Events) {
			t.Errorf("%s: cpu%d trace differs between TraceCPU and RecordAll", name, one.TraceCPU)
		}
		if !reflect.DeepEqual(res1.CPUStats, res.CPUStats) || res1.Cycles != res.Cycles {
			t.Errorf("%s: statistics differ between TraceCPU and RecordAll", name)
		}
	}
	golden.Check(t, "generation.golden", out.Bytes())
}
