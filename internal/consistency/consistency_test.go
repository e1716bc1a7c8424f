// The tests in this file encode Figure 1 of the paper: the completion-order
// restrictions each consistency model places on accesses from one processor.
package consistency

import (
	"testing"
	"testing/quick"

	"dynsched/internal/isa"
)

func TestStrings(t *testing.T) {
	for _, m := range Models {
		got, err := ParseModel(m.String())
		if err != nil || got != m {
			t.Errorf("ParseModel(%v.String()) = %v, %v", m, got, err)
		}
	}
	if _, err := ParseModel("XX"); err == nil {
		t.Error("ParseModel accepted junk")
	}
}

func TestKindOf(t *testing.T) {
	cases := []struct {
		op   isa.Op
		want Kind
	}{
		{isa.OpLd, Load},
		{isa.OpSt, Store},
		{isa.OpLock, Acquire},
		{isa.OpWaitEv, Acquire},
		{isa.OpUnlock, Release},
		{isa.OpSetEv, Release},
		{isa.OpBarrier, Acquire | Release},
		{isa.OpAdd, 0},
		{isa.OpBeqz, 0},
	}
	for _, c := range cases {
		if got := KindOf(c.op); got != c.want {
			t.Errorf("KindOf(%v) = %v, want %v", c.op, got, c.want)
		}
	}
}

// --- SC: serial order (Figure 1, leftmost column) -------------------------

func TestSCIsSerial(t *testing.T) {
	// Any pending access blocks any new access.
	for _, k := range []Kind{Load, Store, Acquire, Release} {
		if !MayIssue(SC, k, Pending{}) {
			t.Errorf("SC: %v blocked with nothing pending", k)
		}
		for _, p := range []Pending{{Loads: 1}, {Stores: 1}, {Acquires: 1}, {Releases: 1}} {
			if MayIssue(SC, k, p) {
				t.Errorf("SC: %v allowed to issue past pending %+v", k, p)
			}
		}
	}
}

// --- PC: reads bypass writes (Figure 1, second column) ---------------------

func TestPCReadBypassesWrite(t *testing.T) {
	if !MayIssue(PC, Load, Pending{Stores: 3}) {
		t.Error("PC: read must be able to bypass pending writes")
	}
	if !MayIssue(PC, Load, Pending{Stores: 1, Releases: 1}) {
		t.Error("PC: read must bypass pending releases (writes) too")
	}
}

func TestPCReadsSerialized(t *testing.T) {
	if MayIssue(PC, Load, Pending{Loads: 1}) {
		t.Error("PC: read must wait for older reads")
	}
	if MayIssue(PC, Load, Pending{Acquires: 1}) {
		t.Error("PC: read must wait for older acquire (a read under PC)")
	}
}

func TestPCWritesWaitForEverything(t *testing.T) {
	if MayIssue(PC, Store, Pending{Loads: 1}) {
		t.Error("PC: write must wait for older reads")
	}
	if MayIssue(PC, Store, Pending{Stores: 1}) {
		t.Error("PC: write must wait for older writes")
	}
	if !MayIssue(PC, Store, Pending{}) {
		t.Error("PC: write with empty pipeline blocked")
	}
}

// --- WO: ordering only at sync points (Figure 1, third column) ------------

func TestWODataOverlapsBetweenSyncs(t *testing.T) {
	if !MayIssue(WO, Load, Pending{Loads: 2, Stores: 3}) {
		t.Error("WO: data read must overlap with pending data accesses")
	}
	if !MayIssue(WO, Store, Pending{Loads: 2, Stores: 3}) {
		t.Error("WO: data write must overlap with pending data accesses")
	}
}

func TestWOSyncIsFence(t *testing.T) {
	for _, k := range []Kind{Acquire, Release, Acquire | Release} {
		if MayIssue(WO, k, Pending{Loads: 1}) {
			t.Errorf("WO: sync %v must wait for older data accesses", k)
		}
	}
	if MayIssue(WO, Load, Pending{Acquires: 1}) {
		t.Error("WO: data access must wait for older sync")
	}
	if MayIssue(WO, Store, Pending{Releases: 1}) {
		t.Error("WO: data access must wait for older release under WO")
	}
}

// --- RC: acquire/release asymmetry (Figure 1, rightmost column) -----------

func TestRCDataBypassesRelease(t *testing.T) {
	// The defining relaxation over WO: accesses after a release need not
	// wait for it.
	if !MayIssue(RC, Load, Pending{Releases: 1}) {
		t.Error("RC: read must overlap with a pending release")
	}
	if !MayIssue(RC, Store, Pending{Releases: 1}) {
		t.Error("RC: write must overlap with a pending release")
	}
}

func TestRCAcquireBlocksYounger(t *testing.T) {
	for _, k := range []Kind{Load, Store, Acquire, Release} {
		if MayIssue(RC, k, Pending{Acquires: 1}) {
			t.Errorf("RC: %v must wait for pending acquire", k)
		}
	}
}

func TestRCReleaseWaitsForOlder(t *testing.T) {
	if MayIssue(RC, Release, Pending{Loads: 1}) {
		t.Error("RC: release must wait for older reads")
	}
	if MayIssue(RC, Release, Pending{Stores: 1}) {
		t.Error("RC: release must wait for older writes")
	}
	if !MayIssue(RC, Release, Pending{}) {
		t.Error("RC: release with empty pipeline blocked")
	}
}

func TestRCDataOverlapsData(t *testing.T) {
	if !MayIssue(RC, Load, Pending{Loads: 5, Stores: 5}) {
		t.Error("RC: reads must overlap with pending data accesses")
	}
	if !MayIssue(RC, Store, Pending{Loads: 5, Stores: 5}) {
		t.Error("RC: writes must overlap with pending data accesses")
	}
}

func TestRCSyncSCAmongThemselves(t *testing.T) {
	if MayIssue(RC, Acquire, Pending{Releases: 1}) {
		t.Error("RCsc: acquire must wait for older release")
	}
	if !MayIssue(RC, Acquire, Pending{Loads: 3}) {
		t.Error("RC: acquire need not wait for older data reads")
	}
}

// --- cross-model relations -------------------------------------------------

// Property: the models form a strictness hierarchy on every data-access
// decision: anything SC allows, PC allows; anything PC allows for data, WO
// and RC... (WO and PC are incomparable in general, but RC is weaker than
// WO, and SC is the strictest of all). We check SC⊆PC, SC⊆WO, WO⊆RC.
func TestStrictnessHierarchy(t *testing.T) {
	f := func(kSeed uint8, loads, stores, acqs, rels uint8) bool {
		kinds := []Kind{Load, Store, Acquire, Release, Acquire | Release}
		k := kinds[int(kSeed)%len(kinds)]
		p := Pending{
			Loads:    int(loads % 4),
			Stores:   int(stores % 4),
			Acquires: int(acqs % 4),
			Releases: int(rels % 4),
		}
		if MayIssue(SC, k, p) && !MayIssue(PC, k, p) {
			return false
		}
		if MayIssue(SC, k, p) && !MayIssue(WO, k, p) {
			return false
		}
		if MayIssue(WO, k, p) && !MayIssue(RC, k, p) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: with nothing pending, every model allows every access.
func TestEmptyPipelineAlwaysIssues(t *testing.T) {
	for _, m := range Models {
		for _, k := range []Kind{Load, Store, Acquire, Release, Acquire | Release} {
			if !MayIssue(m, k, Pending{}) {
				t.Errorf("%v: %v blocked on empty pipeline", m, k)
			}
		}
	}
}

func TestLoadBypass(t *testing.T) {
	if AllowsLoadBypass(SC) {
		t.Error("SC must not allow store-buffer bypass")
	}
	for _, m := range []Model{PC, WO, RC} {
		if !AllowsLoadBypass(m) {
			t.Errorf("%v must allow store-buffer bypass", m)
		}
	}
}

// TestLoadBlockedBlocksAllMonotone checks, exhaustively over Pending counts
// 0..2 for every model, the two properties that let a cache port stop
// scanning its in-order access queue early: once a Load may not issue past
// the accumulated summary, no access kind may; and adding an older pending
// access never unblocks an access. The summary only grows along the scan,
// so a Load-blocked summary blocks everything younger.
func TestLoadBlockedBlocksAllMonotone(t *testing.T) {
	kinds := []Kind{Load, Store, Acquire, Release, Acquire | Release}
	var all []Pending
	for l := 0; l <= 2; l++ {
		for s := 0; s <= 2; s++ {
			for a := 0; a <= 2; a++ {
				for r := 0; r <= 2; r++ {
					all = append(all, Pending{Loads: l, Stores: s, Acquires: a, Releases: r})
				}
			}
		}
	}
	// add returns p with one more pending access of kind k, counted the way
	// the replay models count it (a barrier is both an acquire and a release).
	add := func(p Pending, k Kind) Pending {
		if k&Load != 0 {
			p.Loads++
		}
		if k&Store != 0 {
			p.Stores++
		}
		if k&Acquire != 0 {
			p.Acquires++
		}
		if k&Release != 0 {
			p.Releases++
		}
		return p
	}
	for _, m := range Models {
		for _, p := range all {
			loadBlocked := !MayIssue(m, Load, p)
			for _, k := range kinds {
				if loadBlocked && MayIssue(m, k, p) {
					t.Errorf("%v: %v may issue past %+v although a Load may not", m, k, p)
				}
				if MayIssue(m, k, p) {
					continue
				}
				for _, older := range kinds {
					if q := add(p, older); MayIssue(m, k, q) {
						t.Errorf("%v: %v blocked by %+v but unblocked by adding a pending %v (%+v)", m, k, p, older, q)
					}
				}
			}
		}
	}
}
