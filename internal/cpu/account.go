package cpu

import (
	"dynsched/internal/consistency"
	"dynsched/internal/critpath"
	"dynsched/internal/obs"
)

// Stall categories: the non-busy Figure 3 buckets, and the rows of the
// stall account.
const (
	catSync uint8 = iota
	catRead
	catWrite
	catBranch
	catOther
	numCats
)

// categoryOf is the Figure 3 category of a stall charged to an unperformed
// access of kind k: acquires are synchronization, stores and releases are
// write time, loads are read time.
func categoryOf(k consistency.Kind) uint8 {
	switch {
	case k&consistency.Acquire != 0:
		return catSync
	case k&(consistency.Store|consistency.Release) != 0:
		return catWrite
	default:
		return catRead
	}
}

// latencyCause is the critical-path cause of waiting on an issued access
// of each category.
var latencyCause = [numCats]critpath.Cause{
	catSync:  critpath.SyncWait,
	catRead:  critpath.ReadLat,
	catWrite: critpath.WriteLat,
}

// stall is the charge of one stall cycle: its Figure 3 category and its
// critical-path cause.
type stall struct {
	cat   uint8
	cause critpath.Cause
}

// stallRun is a run-length-encoded stretch of identical charges.
type stallRun struct {
	stall
	n uint64
}

// occupancy holds the three structure-occupancy integrals a timeline point
// carries (Σ per-cycle occupancy). DS: reorder buffer, store buffer,
// outstanding MSHRs; static: in-flight access window, write buffer, read
// buffer.
type occupancy [3]uint64

// add accumulates n cycles at the per-cycle occupancies cur.
func (o *occupancy) add(cur occupancy, n uint64) {
	o[0] += cur[0] * n
	o[1] += cur[1] * n
	o[2] += cur[2] * n
}

// stallMatrix counts stall cycles by (category, cause).
type stallMatrix [numCats][critpath.NumCauses]uint64

// breakdown returns busy plus the row sums.
func (m *stallMatrix) breakdown(busy uint64) Breakdown {
	var r [numCats]uint64
	for c := range m {
		for _, v := range m[c] {
			r[c] += v
		}
	}
	return Breakdown{Busy: busy, Sync: r[catSync], Read: r[catRead],
		Write: r[catWrite], Branch: r[catBranch], Other: r[catOther]}
}

// causes returns the column sums: stall cycles per cause. The Busy column
// stays zero; the collector derives busy as the residual.
func (m *stallMatrix) causes() [critpath.NumCauses]uint64 {
	var c [critpath.NumCauses]uint64
	for _, row := range m {
		for i, v := range row {
			c[i] += v
		}
	}
	return c
}

// stallAccount is a replay's one cycle ledger. Every stall cycle is charged
// exactly once, as a (category, cause) pair, into a joint matrix. The
// Figure 3 Breakdown is the matrix's row sums plus the busy count, and the
// critical-path attribution is its column sums, so the two agree by
// construction.
//
// With credit enabled (DS), charges are also kept on a run-length-encoded
// LIFO: burst-retirement credit reclaims the most recently charged cycle
// and turns it into a busy one. The encoding keeps the stack O(charge
// transitions), so a time-skip bulk charge is O(1), while credit still pops
// one cycle at a time in exactly the order a per-cycle stack would.
type stallAccount struct {
	m     stallMatrix
	busy  uint64 // useful cycles
	n     uint64 // charged stall cycles (Σm)
	last  stall  // most recent charge; cause Busy before any
	lifo  bool   // keep stack for credit
	stack []stallRun
	fine  bool // timeline points carry the per-cause columns
}

// work counts one busy cycle.
func (a *stallAccount) work() { a.busy++ }

// add charges one stall cycle of s.
func (a *stallAccount) add(s stall) { a.addN(s, 1) }

// addN charges n stall cycles of s: a stretch stepped at once, or the bulk
// charge of a time-skip stretch repeating the fixed point's single charge.
func (a *stallAccount) addN(s stall, n uint64) {
	a.m[s.cat][s.cause] += n
	a.n += n
	a.last = s
	if !a.lifo {
		return
	}
	if l := len(a.stack); l > 0 && a.stack[l-1].stall == s {
		a.stack[l-1].n += n
		return
	}
	a.stack = append(a.stack, stallRun{stall: s, n: n})
}

// credit reclassifies the most recently charged stall cycle as busy. It
// reports false when no charged cycle is left to reclaim.
func (a *stallAccount) credit() bool {
	l := len(a.stack)
	if l == 0 {
		return false
	}
	r := &a.stack[l-1]
	a.m[r.cat][r.cause]--
	a.n--
	a.busy++
	if r.n--; r.n == 0 {
		a.stack = a.stack[:l-1]
	}
	return true
}

// finish seals the replay: it hands the column sums to the collector and
// returns the Breakdown.
func (a *stallAccount) finish(cp *critpath.Collector) Breakdown {
	bd := a.m.breakdown(a.busy)
	cp.Finish(bd.Total(), a.m.causes())
	return bd
}

// point snapshots the account as a timeline point at cycle, with instr
// instructions retired and occupancy integrals occ. A boundary interpolated
// inside a stretch of identical stall cycles passes that stretch's charge s
// and the q cycles of it that precede the boundary; other points pass q = 0.
func (a *stallAccount) point(cycle, instr uint64, occ occupancy, s stall, q uint64) obs.TimelinePoint {
	m := a.m
	m[s.cat][s.cause] += q
	bd := m.breakdown(a.busy)
	p := obs.TimelinePoint{
		Cycle: cycle, Instructions: instr,
		Busy: bd.Busy, Sync: bd.Sync, Read: bd.Read,
		Write: bd.Write, Branch: bd.Branch, Other: bd.Other,
		WindowSum: occ[0], StoreBufSum: occ[1], MSHRSum: occ[2],
	}
	if a.fine {
		c := m.causes()
		p.Causes = c[:]
	}
	return p
}
