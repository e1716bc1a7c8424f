package cpu

import (
	"bytes"
	"fmt"
	"testing"

	"dynsched/internal/apps"
	"dynsched/internal/consistency"
	"dynsched/internal/golden"
	"dynsched/internal/tango"
	"dynsched/internal/trace"
)

// TestDSConfigGolden pins DS results for the configurations no sweep hash
// covers — speculative loads, prefetching behind a finite MSHR file, and
// 4-wide issue — at a small and a large window under every consistency
// model, on a synthetic sync-heavy trace and on one processor's small-scale
// PTHOR trace. Each knob changes which accesses the cache port may issue or
// how many instructions move per cycle, so a change to the port's scan or
// to its bookkeeping of performed accesses shows up here.
func TestDSConfigGolden(t *testing.T) {
	app, err := apps.Build("pthor", 16, apps.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := tango.Run(app.Progs, app.Init, tango.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	traces := []*trace.Trace{randomTrace(13, 20000), gen.Trace}
	knobs := []struct {
		name string
		set  func(*Config)
	}{
		{"speculative", func(c *Config) { c.SpeculativeLoads = true }},
		{"prefetch-mshr4", func(c *Config) { c.Prefetch, c.MSHRs = true, 4 }},
		{"issue4", func(c *Config) { c.IssueWidth = 4 }},
	}
	var out bytes.Buffer
	for _, tr := range traces {
		for _, k := range knobs {
			for _, w := range []int{16, 256} {
				for _, m := range consistency.Models {
					c := Config{Model: m, Window: w}
					k.set(&c)
					r, err := RunDS(tr, c)
					if err != nil {
						t.Fatalf("%s %s W%d %v: %v", tr.App, k.name, w, m, err)
					}
					fmt.Fprintf(&out, "%s %s W%d %v instrs=%d prefetches=%d %v\n",
						tr.App, k.name, w, m, r.Instructions, r.Prefetches, r.Breakdown)
				}
			}
		}
	}
	golden.Check(t, "ds_config.golden", out.Bytes())
}
