package cpu

import (
	"dynsched/internal/critpath"
	"dynsched/internal/isa"
	"dynsched/internal/obs"
	"dynsched/internal/trace"
)

// RunBase replays tr through the BASE processor of Figure 3: an in-order
// machine "which completes each operation before initiating the next one
// (i.e., no overlap in execution of instructions and memory operations)".
//
// Every instruction costs one busy cycle; memory operations add their full
// transfer latency minus the overlapping execute cycle; synchronization
// operations add their wait and transfer components. The consistency model
// is irrelevant for BASE because nothing overlaps anyway.
func RunBase(tr *trace.Trace) Result {
	return RunBaseObs(tr, nil, nil)
}

// RunBaseObs is RunBase with the observability hooks BASE supports. BASE
// takes no Config, so — like obs.PublishResult — the hooks are arguments
// rather than Config fields.
//
//   - cp collects critical-path attribution. With BASE nothing overlaps, so
//     the attribution is exact: every stall cycle's cause is the
//     instruction's own memory or synchronization latency, and each
//     instruction's last-arriving edge is that same cause (busy when it
//     added no stall).
//   - tl samples the interval timeline. BASE has no cycle loop — it charges
//     each instruction's cycles in one step — so the sampler interpolates
//     within an instruction's charges (the busy cycle first, then the stall
//     stretch) whenever they cross a boundary, keeping the emitted
//     snapshots exactly aligned.
func RunBaseObs(tr *trace.Trace, cp *critpath.Collector, tl *obs.Timeline) Result {
	src := sliceSource(tr)
	res, _ := runBase(&src, cp, tl) // the materialized arm cannot fail
	return res
}

// runBase is the BASE replay core over an eventSource; the streaming arm
// can surface a decode or integrity error from the cursor.
func runBase(src *eventSource, cp *critpath.Collector, tl *obs.Timeline) (Result, error) {
	acct := stallAccount{fine: cp != nil}
	for i := 0; i < src.n; i++ {
		e, err := src.fetch()
		if err != nil {
			return Result{}, err
		}
		var (
			d uint64
			s stall
		)
		switch e.Class() {
		case isa.ClassLoad:
			d = uint64(e.Latency) - 1
			s = stall{catRead, critpath.ReadLat}
		case isa.ClassStore:
			d = uint64(e.Latency) - 1
			s = stall{catWrite, critpath.WriteLat}
		case isa.ClassSync:
			// Acquires (lock, event wait, barrier) stall for their wait and
			// transfer components; releases (unlock, event set) are writes
			// and their latency is charged as write time — "release
			// operations are included in the total write miss time".
			d = uint64(e.Wait) + uint64(e.Latency) - 1
			s = stall{catWrite, critpath.WriteLat}
			if isAcquireClass(e.Instr.Op) {
				s = stall{catSync, critpath.SyncWait}
			}
		}
		// The instruction takes its busy cycle, then d stall cycles of s. A
		// timeline boundary bb inside that span snapshots the busy cycle
		// plus the bb-start stall cycles before it, where start is the
		// cycle count just after the busy cycle.
		acct.work()
		start := acct.busy + acct.n
		for bb := tl.Boundary(); bb <= start+d; bb = tl.Boundary() {
			tl.Record(acct.point(bb, acct.busy, occupancy{}, s, bb-start))
		}
		if d > 0 {
			acct.addN(s, d)
			cp.Edge(s.cause)
		} else {
			cp.Edge(critpath.Busy)
		}
	}
	bd := acct.finish(cp)
	if tl != nil {
		tl.Finish(acct.point(bd.Total(), acct.busy, occupancy{}, stall{}, 0))
	}
	return Result{Breakdown: bd, Instructions: uint64(src.n)}, nil
}
