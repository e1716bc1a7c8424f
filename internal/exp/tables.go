package exp

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"dynsched/internal/bpred"
	"dynsched/internal/trace"
)

// Table1Row is one application's row of Table 1 (data reference statistics).
type Table1Row struct {
	App  string
	Data trace.DataStats
}

// Table1 computes the data-reference statistics for every application,
// scanning the traces concurrently (bounded by Options.Workers).
func (e *Experiment) Table1() ([]Table1Row, error) {
	return perApp(e, func(app string, run *AppRun) (Table1Row, error) {
		return Table1Row{App: app, Data: run.Trace.Data()}, nil
	})
}

// FormatTable1 renders Table 1 in the paper's layout (counts in thousands,
// rates per thousand instructions in parentheses).
func FormatTable1(rows []Table1Row) string {
	var sb strings.Builder
	sb.WriteString("Table 1: statistics on data references (single traced processor)\n")
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Program\tBusy Cycles\treads (x1000)\twrites (x1000)\tread misses (x1000)\twrite misses (x1000)")
	for _, r := range rows {
		d := r.Data
		fmt.Fprintf(w, "%s\t%d\t%.1f (%.1f)\t%.1f (%.1f)\t%.2f (%.1f)\t%.2f (%.1f)\n",
			strings.ToUpper(r.App), d.BusyCycles,
			float64(d.Reads)/1000, d.Per1000(d.Reads),
			float64(d.Writes)/1000, d.Per1000(d.Writes),
			float64(d.ReadMisses)/1000, d.Per1000(d.ReadMisses),
			float64(d.WriteMisses)/1000, d.Per1000(d.WriteMisses))
	}
	w.Flush()
	return sb.String()
}

// Table2Row is one application's row of Table 2 (synchronization statistics).
type Table2Row struct {
	App  string
	Sync trace.SyncStats
	Busy uint64
}

// Table2 computes the synchronization statistics for every application,
// scanning the traces concurrently (bounded by Options.Workers).
func (e *Experiment) Table2() ([]Table2Row, error) {
	return perApp(e, func(app string, run *AppRun) (Table2Row, error) {
		return Table2Row{App: app, Sync: run.Trace.Sync(), Busy: run.Trace.Data().BusyCycles}, nil
	})
}

// FormatTable2 renders Table 2 (counts with per-1000-instruction rates).
func FormatTable2(rows []Table2Row) string {
	var sb strings.Builder
	sb.WriteString("Table 2: statistics on synchronization (single traced processor)\n")
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Program\tlocks\tunlocks\twait event\tset event\tbarriers")
	rate := func(n, busy uint64) string {
		if busy == 0 {
			return fmt.Sprintf("%d", n)
		}
		return fmt.Sprintf("%d (%.2f)", n, float64(n)*1000/float64(busy))
	}
	for _, r := range rows {
		s := r.Sync
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\n", strings.ToUpper(r.App),
			rate(s.Locks, r.Busy), rate(s.Unlocks, r.Busy), rate(s.WaitEvents, r.Busy),
			rate(s.SetEvents, r.Busy), rate(s.Barriers, r.Busy))
	}
	w.Flush()
	return sb.String()
}

// Table3Row is one application's row of Table 3 (branch behaviour).
type Table3Row struct {
	App      string
	Branches trace.BranchStats
}

// Table3 computes branch statistics using the paper's BTB (2048-entry,
// 4-way, 2-bit counters). Each application replays through its own BTB
// instance, so the per-app jobs run concurrently.
func (e *Experiment) Table3() ([]Table3Row, error) {
	return perApp(e, func(app string, run *AppRun) (Table3Row, error) {
		return Table3Row{App: app, Branches: run.Trace.Branches(bpred.NewPaperBTB())}, nil
	})
}

// FormatTable3 renders Table 3 in the paper's layout.
func FormatTable3(rows []Table3Row) string {
	var sb strings.Builder
	sb.WriteString("Table 3: statistics on branch behavior\n")
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Program\tPct of Instructions\tAvg Distance bet. Branches\tPct Correctly Predicted\tAvg Distance bet. Mispredictions")
	for _, r := range rows {
		b := r.Branches
		fmt.Fprintf(w, "%s\t%.1f%%\t%.1f\t%.1f%%\t%.1f\n",
			strings.ToUpper(r.App), b.PctInstructions, b.AvgDistance, b.PctCorrect, b.AvgMispredictDistance)
	}
	w.Flush()
	return sb.String()
}

// FormatColumns renders a figure's columns as a normalized breakdown table,
// the textual equivalent of the paper's stacked bar charts: each column
// shows its sections as a percentage of BASE execution time. A cell that
// failed terminally (see Column.Failed) renders as a FAILED row carrying
// the first line of its error, so partial results remain readable.
func FormatColumns(title string, cols []Column) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Config\t|Total\tBusy\tSync\tRead\tWrite\tBranch\tOther\t|Norm(%)\tReadHidden(%)")
	base := float64(cols[0].Breakdown.Total())
	pct := func(v uint64) string {
		if base == 0 {
			return "0"
		}
		return fmt.Sprintf("%.1f", 100*float64(v)/base)
	}
	for _, c := range cols {
		if c.Failed {
			fmt.Fprintf(w, "%s\t|FAILED\t%s\n", c.Label, shortErr(c.Err))
			continue
		}
		b := c.Breakdown
		fmt.Fprintf(w, "%s\t|%d\t%s\t%s\t%s\t%s\t%s\t%s\t|%.1f\t%.0f\n",
			c.Label, b.Total(), pct(b.Busy), pct(b.Sync), pct(b.Read), pct(b.Write),
			pct(b.Branch), pct(b.Other), c.Normalized, 100*c.ReadHidden)
	}
	w.Flush()
	return sb.String()
}

// shortErr compresses an error to a single table-cell-sized line.
func shortErr(err error) string {
	if err == nil {
		return "?"
	}
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 90 {
		s = s[:87] + "..."
	}
	return s
}

// ColumnsCSV renders figure columns as CSV (one row per configuration) for
// external plotting: app, label, model, arch, window, the six breakdown
// sections, total, and the normalized percentage. Failed cells are omitted
// — a partial sweep's CSV holds only real measurements; the failures are
// reported by the accompanying *PartialError and the run ledger.
func ColumnsCSV(acs []AppColumns) string {
	var sb strings.Builder
	sb.WriteString("app,config,model,arch,window,busy,sync,read,write,branch,other,total,normalized_pct\n")
	for _, ac := range acs {
		for _, c := range ac.Cols {
			if c.Failed {
				continue
			}
			b := c.Breakdown
			fmt.Fprintf(&sb, "%s,%s,%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%.2f\n",
				ac.App, c.Label, c.Model, c.Arch, c.Window,
				b.Busy, b.Sync, b.Read, b.Write, b.Branch, b.Other,
				b.Total(), c.Normalized)
		}
	}
	return sb.String()
}
