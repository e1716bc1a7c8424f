package cpu

import (
	"reflect"
	"testing"

	"dynsched/internal/critpath"
)

// TestAccountCreditLIFO checks that credit reclaims charged cycles one at a
// time in exactly the reverse charge order, across run-length boundaries
// between interleaved (category, cause) runs — including runs that share a
// category but not a cause, or a cause but not a category.
func TestAccountCreditLIFO(t *testing.T) {
	readLat := stall{catRead, critpath.ReadLat}
	readCons := stall{catRead, critpath.Consistency}
	writeCons := stall{catWrite, critpath.Consistency}
	refill := stall{catBranch, critpath.BranchRefill}

	a := stallAccount{lifo: true}
	a.addN(readLat, 2)
	a.add(readCons)
	a.add(writeCons)
	a.add(refill)
	a.add(readLat) // a separate run after the refill run

	want := []stall{readLat, refill, writeCons, readCons, readLat, readLat}
	for i, s := range want {
		before := a.m[s.cat][s.cause]
		if !a.credit() {
			t.Fatalf("credit %d: nothing to reclaim", i)
		}
		if got := a.m[s.cat][s.cause]; got != before-1 {
			t.Fatalf("credit %d: m[%d][%v] = %d, want %d", i, s.cat, s.cause, got, before-1)
		}
		if a.busy != uint64(i+1) || a.n != uint64(len(want)-i-1) {
			t.Fatalf("credit %d: busy=%d n=%d, want %d and %d", i, a.busy, a.n, i+1, len(want)-i-1)
		}
	}
	if a.credit() {
		t.Error("credit on an empty stack reclaimed a cycle")
	}
	if a.m != (stallMatrix{}) {
		t.Errorf("after draining, matrix = %v, want zero", a.m)
	}
}

// TestAccountBulkEqualsStepped pins the time-skip contract: a bulk charge
// of n cycles leaves the account — matrix, totals, last charge and credit
// stack — exactly as n stepped charges would.
func TestAccountBulkEqualsStepped(t *testing.T) {
	charges := []struct {
		s stall
		n uint64
	}{
		{stall{catRead, critpath.ReadLat}, 5},
		{stall{catRead, critpath.ReadLat}, 3},
		{stall{catSync, critpath.SyncWait}, 1},
		{stall{catWrite, critpath.BufferFull}, 40},
		{stall{catRead, critpath.MSHRFull}, 7},
	}
	bulk := stallAccount{lifo: true}
	step := stallAccount{lifo: true}
	for _, c := range charges {
		bulk.addN(c.s, c.n)
		for i := uint64(0); i < c.n; i++ {
			step.add(c.s)
		}
		bulk.work()
		step.work()
	}
	if !reflect.DeepEqual(bulk, step) {
		t.Fatalf("bulk and stepped accounts differ:\nbulk %+v\nstep %+v", bulk, step)
	}
	for bulk.credit() {
		if !step.credit() {
			t.Fatal("stepped account ran out of credit first")
		}
		if bulk.m != step.m {
			t.Fatalf("credit order diverges:\nbulk %v\nstep %v", bulk.m, step.m)
		}
	}
	if step.credit() {
		t.Fatal("bulk account ran out of credit first")
	}
}

// TestAccountBusyResidual checks the two marginals: the Breakdown is busy
// plus the row sums, and the attribution handed to the collector has the
// column sums as its stall buckets and busy as the residual of the total.
func TestAccountBusyResidual(t *testing.T) {
	a := stallAccount{lifo: true}
	for i := 0; i < 50; i++ {
		a.work()
	}
	a.addN(stall{catRead, critpath.ReadLat}, 30)
	a.addN(stall{catRead, critpath.Consistency}, 10)
	a.addN(stall{catWrite, critpath.Consistency}, 4)
	a.addN(stall{catBranch, critpath.BranchRefill}, 2)
	a.credit() // one refill cycle becomes busy

	cp := critpath.NewCollector()
	bd := a.finish(cp)
	want := Breakdown{Busy: 51, Read: 40, Write: 4, Branch: 1}
	if bd != want {
		t.Fatalf("breakdown = %v, want %v", bd, want)
	}
	attr := cp.Attribution()
	if attr.Total != bd.Total() || attr.Sum() != bd.Total() {
		t.Errorf("attribution total %d, sum %d, want %d", attr.Total, attr.Sum(), bd.Total())
	}
	if attr.Cycles[critpath.Busy] != bd.Busy {
		t.Errorf("attribution busy = %d, want Breakdown.Busy = %d", attr.Cycles[critpath.Busy], bd.Busy)
	}
	wantCycles := [critpath.NumCauses]uint64{
		critpath.Busy: 51, critpath.ReadLat: 30, critpath.Consistency: 14, critpath.BranchRefill: 1,
	}
	if attr.Cycles != wantCycles {
		t.Errorf("attribution cycles = %v, want %v", attr.Cycles, wantCycles)
	}
}

// TestAccountLastCharge checks the cause the models hand to the collector
// as a waiting instruction's last-arriving edge: Busy before any charge,
// then the most recent charge, which credit does not rewind.
func TestAccountLastCharge(t *testing.T) {
	a := stallAccount{lifo: true}
	if a.last.cause != critpath.Busy {
		t.Errorf("last before any charge = %v, want busy", a.last.cause)
	}
	a.add(stall{catRead, critpath.ReadLat})
	a.add(stall{catRead, critpath.MSHRFull})
	if a.last.cause != critpath.MSHRFull {
		t.Errorf("last = %v, want mshr-full", a.last.cause)
	}
	a.credit()
	if a.last.cause != critpath.MSHRFull {
		t.Errorf("last after credit = %v, want mshr-full", a.last.cause)
	}
}

// TestAccountPointInterpolates checks that a timeline point taken q cycles
// into a stretch of identical charges equals the point of an account that
// has charged them.
func TestAccountPointInterpolates(t *testing.T) {
	s := stall{catWrite, critpath.BufferFull}
	a := stallAccount{fine: true}
	a.work()
	a.add(stall{catRead, critpath.ReadLat})
	a.add(s)
	occ := occupancy{5, 2, 1}

	const q = 6
	got := a.point(100, 1, occ, s, q)
	b := a
	b.addN(s, q)
	if want := b.point(100, 1, occ, stall{}, 0); !reflect.DeepEqual(got, want) {
		t.Errorf("interpolated point = %+v, want %+v", got, want)
	}
	if got.Write != q+1 || got.Read != 1 || got.Busy != 1 || got.Causes[critpath.BufferFull] != q+1 {
		t.Errorf("point = %+v", got)
	}

	a.fine = false
	if p := a.point(100, 1, occ, s, q); p.Causes != nil {
		t.Errorf("point without a collector carries causes %v", p.Causes)
	}
}
