package main

// The simulated outputs of one workload pass and their digest. Every way
// the benchmark runs a workload — through the exp entry points at any
// worker count, or serially through the layers with spans — fills the same
// outputs value, and result() reduces it to a hash, so any two passes can
// be compared cell for cell.

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"dynsched/internal/exp"
)

// paperHidden is the paper's §7 average fraction of read latency hidden
// under RC at windows 16, 32 and 64, in percent — the reference the
// read_hidden_err_pp metric measures the simulator against.
var paperHidden = []struct {
	window int
	pct    float64
}{{16, 33}, {32, 63}, {64, 81}}

// genStat is one application's trace generation: tango's simulated cycles,
// the instructions all processors executed, their cache misses, and the
// length of the replayed trace.
type genStat struct {
	App    string
	Cycles uint64
	Instr  uint64
	Misses uint64
	Events int
}

func appGenStat(run *exp.AppRun) genStat {
	g := genStat{App: run.App, Events: run.Trace.Len()}
	for _, c := range run.CPUs {
		g.Cycles = max(g.Cycles, c.FinishCycle)
		g.Instr += c.Instructions
	}
	for _, m := range run.Caches {
		g.Misses += m.ReadMisses + m.WriteMisses
	}
	return g
}

// sweep is one column experiment's cells for every application.
type sweep struct {
	Name string
	Apps []exp.AppColumns
}

// outputs is everything a workload pass produced that the correctness gate
// checks.
type outputs struct {
	Gens     []genStat
	Sweeps   []sweep
	Analyze  *exp.AnalyzeReport
	Timeline *exp.TimelineReport

	held any // the operation's state, kept live until measure reads the heap
}

// result is one timed pass: its host cost and the digest of its outputs.
type result struct {
	Wall     time.Duration
	Alloc    uint64 // bytes allocated during the timed part
	Retained uint64 // live heap bytes the operation holds at its end

	Hash     string // every output of the pass
	Fig3Hash string // the generations and Figure 3 cells alone; "" without them

	Instr         uint64  // simulated instructions delivered
	Cells, Failed int     // replay cells attempted and failed
	HiddenErrPP   float64 // read_hidden_err_pp; NaN without RC-DS cells
}

// result digests the outputs. Each line names the cell and carries its
// label, stall breakdown and instruction count; generation lines carry
// tango's cycles. Floating-point derived fields are left out: they are
// functions of the hashed integers.
func (o outputs) result() result {
	var r result
	all, fig3 := fnv.New64a(), fnv.New64a()
	for _, g := range o.Gens {
		line := fmt.Sprintf("gen %s cycles=%d instr=%d misses=%d events=%d\n", g.App, g.Cycles, g.Instr, g.Misses, g.Events)
		all.Write([]byte(line))
		fig3.Write([]byte(line))
		r.Instr += g.Instr
	}
	reads := map[string]map[string]uint64{} // app -> label -> read stall
	hasFig3 := false
	for _, s := range o.Sweeps {
		for _, ac := range s.Apps {
			for _, c := range ac.Cols {
				line := fmt.Sprintf("%s %s %s %+v instr=%d failed=%t\n", s.Name, ac.App, c.Label, c.Breakdown, c.Instructions, c.Failed)
				all.Write([]byte(line))
				r.count(c.Instructions, c.Failed)
				if s.Name == "fig3" {
					hasFig3 = true
					fig3.Write([]byte(line))
					noteRead(reads, ac.App, c.Label, c.Breakdown.Read)
				}
			}
		}
	}
	if a := o.Analyze; a != nil {
		for _, app := range a.Apps {
			for _, c := range app.Cells {
				fmt.Fprintf(all, "analyze %s %s %+v instr=%d attr=%v failed=%t\n", app.App, c.Label, c.Breakdown, c.Instructions, c.Attr, c.Failed)
				r.count(c.Instructions, c.Failed)
				if !hasFig3 {
					noteRead(reads, app.App, c.Label, c.Breakdown.Read)
				}
			}
		}
	}
	if t := o.Timeline; t != nil {
		for _, app := range t.Apps {
			for _, c := range app.Cells {
				fmt.Fprintf(all, "timeline %s %s cycles=%d instr=%d interval=%d samples=%d phases=%+v failed=%t\n",
					app.App, c.Label, c.TotalCycles, c.Instructions, c.Interval, len(c.Samples), c.Phases, c.Failed)
				r.count(c.Instructions, c.Failed)
			}
		}
	}
	r.Hash = fmt.Sprintf("%016x", all.Sum64())
	if hasFig3 {
		r.Fig3Hash = fmt.Sprintf("%016x", fig3.Sum64())
	}
	r.HiddenErrPP = hiddenErr(reads)
	return r
}

func (r *result) count(instr uint64, failed bool) {
	r.Cells++
	r.Instr += instr
	if failed {
		r.Failed++
	}
}

func noteRead(reads map[string]map[string]uint64, app, label string, read uint64) {
	if reads[app] == nil {
		reads[app] = map[string]uint64{}
	}
	reads[app][label] = read
}

// hiddenErr is the mean absolute difference, in percentage points, between
// the measured RC-DS read latency hidden, averaged over the applications
// as exp.ReadHiddenSummary does, and the paper's figures. Applications are
// summed in name order so the value is reproducible to the last bit.
func hiddenErr(reads map[string]map[string]uint64) float64 {
	if len(reads) == 0 {
		return math.NaN()
	}
	appNames := make([]string, 0, len(reads))
	for app := range reads {
		appNames = append(appNames, app)
	}
	sort.Strings(appNames)
	sum := 0.0
	for _, p := range paperHidden {
		avg := 0.0
		for _, app := range appNames {
			cells := reads[app]
			base, ok := cells["BASE"]
			ds, ok2 := cells[fmt.Sprintf("RC-DS%d", p.window)]
			if !ok || !ok2 {
				return math.NaN()
			}
			if base > 0 {
				avg += (1 - float64(ds)/float64(base)) / float64(len(reads))
			}
		}
		sum += math.Abs(100*avg - p.pct)
	}
	return sum / float64(len(paperHidden))
}
