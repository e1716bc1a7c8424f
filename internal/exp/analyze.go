package exp

// The critical-path bottleneck analysis (`hidelat analyze`): the Figure 3
// window sweep replayed with a critpath.Collector attached to every cell,
// producing a top-down attribution — at window W under model M, X% of
// execution time is on the critical path because of cause C — plus the
// per-instruction last-arriving-edge distribution. The collection follows
// the ledger's determinism discipline: one collector per cell, results
// merged by input index, so the report is byte-identical at any worker
// count and the published counters land in the FNV checksum.

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"dynsched/internal/cpu"
	"dynsched/internal/critpath"
	"dynsched/internal/obs"
)

// AnalyzeCell is one replay cell's attribution: a processor configuration,
// its Figure 3 breakdown, and the fine-grained critical-path buckets that
// sum exactly to Breakdown.Total().
type AnalyzeCell struct {
	Label        string               `json:"label"`
	Arch         string               `json:"arch"`
	Window       int                  `json:"window,omitempty"`
	Breakdown    cpu.Breakdown        `json:"breakdown"`
	Instructions uint64               `json:"instructions"`
	Attr         critpath.Attribution `json:"attribution"`

	Failed bool   `json:"failed,omitempty"`
	Error  string `json:"error,omitempty"`
	Err    error  `json:"-"`
}

// AnalyzeApp is one application's cells, in fixed configuration order.
type AnalyzeApp struct {
	App   string        `json:"app"`
	Cells []AnalyzeCell `json:"cells"`
}

// AnalyzeReport is the full analysis: every configured application against
// the attribution cell matrix (BASE, RC-SSBR, RC-SS, RC-DS window sweep).
type AnalyzeReport struct {
	Apps []AnalyzeApp `json:"apps"`
}

// analyzeSpecs is the attribution matrix: BASE as the reference, the two
// static models under RC, and the full DS window sweep under RC — the
// sweep along which the paper's conclusion (memory-latency-bound at small
// windows, branch-prediction-bound at large ones) must show up.
func analyzeSpecs() []CellSpec {
	var specs []CellSpec
	for _, s := range Figure3Specs() {
		if s.Arch == "BASE" || s.Model == "RC" {
			specs = append(specs, s)
		}
	}
	return specs
}

// AnalyzeAll runs the apps × cells attribution matrix through the sweep
// scheduler with a critical-path collector attached to every cell. Failure
// containment is the scheduler's: a failed generation marks the
// application's cells, a failed cell is marked without disturbing its
// neighbours, and partial results return a *PartialError.
func (e *Experiment) AnalyzeAll() (*AnalyzeReport, error) {
	specs := analyzeSpecs()
	cps := make([]*critpath.Collector, len(e.Apps())*len(specs))
	acs, err := e.perAppCells(e.Apps(), specs, "analyze", func(i int) (*critpath.Collector, *obs.Timeline) {
		cps[i] = critpath.NewCollector()
		return cps[i], nil
	})
	if acs == nil {
		return nil, err
	}
	rep := &AnalyzeReport{Apps: make([]AnalyzeApp, len(acs))}
	for a, ac := range acs {
		rep.Apps[a] = AnalyzeApp{App: ac.App, Cells: make([]AnalyzeCell, len(ac.Cols))}
		for c, col := range ac.Cols {
			cell := &rep.Apps[a].Cells[c]
			*cell = AnalyzeCell{Label: col.Label, Arch: col.Arch, Window: col.Window}
			if col.Failed {
				cell.Failed, cell.Err, cell.Error = true, col.Err, col.Err.Error()
				continue
			}
			cell.Breakdown, cell.Instructions = col.Breakdown, col.Instructions
			cell.Attr = cps[a*len(specs)+c].Attribution()
		}
	}
	return rep, err
}

// WindowDominant is one point of the sweep-level summary: the dominant
// stall cause at a window size, with cycles aggregated over applications.
type WindowDominant struct {
	Window int            `json:"window"`
	Cause  critpath.Cause `json:"-"`
	Name   string         `json:"dominant_stall"`
	Share  float64        `json:"share"` // of total execution cycles at this window
}

// DominantStallByWindow aggregates the RC-DS cells across applications and
// returns, per window, the stall cause holding the most cycles — the
// paper's conclusion rendered as data: read latency dominates small
// windows, branch refill takes over as the window grows.
func (r *AnalyzeReport) DominantStallByWindow() []WindowDominant {
	out := make([]WindowDominant, 0, len(Windows))
	for _, w := range Windows {
		label := fmt.Sprintf("RC-DS%d", w)
		var agg critpath.Attribution
		for _, app := range r.Apps {
			for _, c := range app.Cells {
				if c.Failed || c.Label != label {
					continue
				}
				agg.Total += c.Attr.Total
				for i := range agg.Cycles {
					agg.Cycles[i] += c.Attr.Cycles[i]
				}
			}
		}
		if agg.Total == 0 {
			continue
		}
		d := agg.DominantStall()
		out = append(out, WindowDominant{Window: w, Cause: d, Name: d.String(), Share: agg.Share(d)})
	}
	return out
}

// pct renders an exact-integer ratio as a fixed-precision percentage, so
// the report is deterministic across platforms and worker counts.
func pct(part, total uint64) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", 100*float64(part)/float64(total))
}

// Format renders the report as the text tables `hidelat analyze` prints:
// per application, the cycle attribution (percent of execution time per
// cause) and the last-arriving-edge distribution (percent of retired
// instructions), then the cross-application dominant-stall summary.
func (r *AnalyzeReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Critical-path cycle attribution (top-down): %% of execution time by cause.\n")
	causes := critpath.Causes()
	for _, app := range r.Apps {
		fmt.Fprintf(&b, "\n== %s ==\n", app.App)
		tw := tabwriter.NewWriter(&b, 2, 0, 1, ' ', tabwriter.AlignRight)
		fmt.Fprint(tw, "Config\t|\tTotal\t|")
		for _, c := range causes {
			if c == critpath.InOrder {
				continue // edge-only cause: never charged cycles
			}
			fmt.Fprintf(tw, "\t%s", c)
		}
		fmt.Fprint(tw, "\t|\tdominant\t\n")
		for _, cell := range app.Cells {
			if cell.Failed {
				fmt.Fprintf(tw, "%s\t|\tFAILED\t|", cell.Label)
				for _, c := range causes {
					if c == critpath.InOrder {
						continue
					}
					fmt.Fprint(tw, "\t-")
				}
				fmt.Fprint(tw, "\t|\t-\t\n")
				continue
			}
			fmt.Fprintf(tw, "%s\t|\t%d\t|", cell.Label, cell.Attr.Total)
			for _, c := range causes {
				if c == critpath.InOrder {
					continue
				}
				fmt.Fprintf(tw, "\t%s", pct(cell.Attr.Cycles[c], cell.Attr.Total))
			}
			fmt.Fprintf(tw, "\t|\t%s\t\n", cell.Attr.DominantStall())
		}
		tw.Flush()

		fmt.Fprintf(&b, "\nLast-arriving edges (%% of retired instructions):\n")
		tw = tabwriter.NewWriter(&b, 2, 0, 1, ' ', tabwriter.AlignRight)
		fmt.Fprint(tw, "Config\t|")
		for _, c := range causes {
			fmt.Fprintf(tw, "\t%s", c)
		}
		fmt.Fprint(tw, "\t\n")
		for _, cell := range app.Cells {
			if cell.Failed {
				continue
			}
			fmt.Fprintf(tw, "%s\t|", cell.Label)
			total := cell.Attr.EdgeSum()
			for _, c := range causes {
				fmt.Fprintf(tw, "\t%s", pct(cell.Attr.Edges[c], total))
			}
			fmt.Fprint(tw, "\t\n")
		}
		tw.Flush()
	}

	if doms := r.DominantStallByWindow(); len(doms) > 0 {
		fmt.Fprintf(&b, "\nRC-DS dominant stall by window (cycles aggregated over applications):\n")
		for _, d := range doms {
			fmt.Fprintf(&b, "  W%-4d %-14s %s%%\n", d.Window, d.Name, pct(uint64(d.Share*1e6), 1e6))
		}
	}
	return b.String()
}

// FlameCells flattens the report for the Chrome-trace flamegraph export:
// one row per healthy app × config cell, in report order.
func (r *AnalyzeReport) FlameCells() []critpath.FlameCell {
	var out []critpath.FlameCell
	for _, app := range r.Apps {
		for _, c := range app.Cells {
			if c.Failed {
				continue
			}
			out = append(out, critpath.FlameCell{Name: app.App + " " + c.Label, Attr: c.Attr})
		}
	}
	return out
}

// RecordAnalyze publishes the attribution into reg under
// "critpath.<app>.<label>.": exact cycle and edge counters (which therefore
// land in the snapshot FNV checksum, the run ledger, and `hidelat diff` —
// attribution drift fails the same gates as cycle drift) plus share gauges
// for dashboards. No-op with a nil registry.
func RecordAnalyze(reg *obs.Registry, r *AnalyzeReport) {
	if reg == nil || r == nil {
		return
	}
	for _, app := range r.Apps {
		for _, c := range app.Cells {
			if c.Failed {
				continue
			}
			pre := fmt.Sprintf("critpath.%s.%s.", app.App, c.Label)
			reg.Counter(pre + "cycles.total").Set(c.Attr.Total)
			for _, cause := range critpath.Causes() {
				if n := c.Attr.Cycles[cause]; n > 0 || cause == critpath.Busy {
					reg.Counter(pre + "cycles." + cause.String()).Set(n)
				}
				if n := c.Attr.Edges[cause]; n > 0 {
					reg.Counter(pre + "edges." + cause.String()).Set(n)
				}
			}
			for _, cause := range critpath.Causes() {
				if c.Attr.Cycles[cause] > 0 {
					reg.Gauge(pre + "share." + cause.String()).Set(100 * c.Attr.Share(cause))
				}
			}
		}
	}
}
