// Package bpred implements the branch predictors of the paper: a branch
// target buffer (BTB) with 2-bit saturating counters — the paper uses a
// 2048-entry, 4-way set-associative BTB (§3.1) — and the perfect predictor
// used to isolate branch effects in Figure 4.
package bpred

import "fmt"

// Predictor matches trace.Predictor (declared locally to avoid an import
// cycle; package trace asserts the compatibility in its tests).
type Predictor interface {
	Predict(pc int32, actual bool) bool
	Update(pc int32, taken bool)
}

// BTB is a set-associative branch target buffer with per-entry 2-bit
// saturating counters and true-LRU replacement. A branch that misses in the
// BTB is predicted not taken; entries are allocated when a branch is first
// taken, as in classic BTB designs (Lee & Smith). The table is stored as
// two flat arrays (set s occupies entries[s*ways : (s+1)*ways]) so
// constructing a BTB costs a fixed three allocations regardless of
// geometry — processor replays build one per run.
type BTB struct {
	entries []btbEntry // numSets × ways
	clocks  []uint32   // per-set LRU clock
	ways    int
	setMask int32
}

type btbEntry struct {
	valid   bool
	tag     int32
	counter uint8 // 0..3; >=2 predicts taken
	lru     uint32
}

// CheckGeometry reports whether NewBTB accepts the geometry: a positive
// entry count that the associativity divides into a power-of-two number of
// sets.
func CheckGeometry(entries, ways int) error {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		return fmt.Errorf("bpred: bad geometry %d entries / %d ways", entries, ways)
	}
	if numSets := entries / ways; numSets&(numSets-1) != 0 {
		return fmt.Errorf("bpred: number of sets %d not a power of two", numSets)
	}
	return nil
}

// NewBTB creates a BTB with the given total entry count and associativity.
// entries/ways must be a power of two.
func NewBTB(entries, ways int) (*BTB, error) {
	if err := CheckGeometry(entries, ways); err != nil {
		return nil, err
	}
	numSets := entries / ways
	return &BTB{
		entries: make([]btbEntry, entries),
		clocks:  make([]uint32, numSets),
		ways:    ways,
		setMask: int32(numSets - 1),
	}, nil
}

// NewPaperBTB returns the paper's configuration: 2048 entries, 4-way.
func NewPaperBTB() *BTB {
	b, err := NewBTB(2048, 4)
	if err != nil {
		panic(err)
	}
	return b
}

func (b *BTB) lookup(pc int32) (int, *btbEntry) {
	s := int(pc & b.setMask)
	set := b.entries[s*b.ways : (s+1)*b.ways]
	tag := pc >> 0 // full PC kept as tag (virtual PCs are small)
	for i := range set {
		e := &set[i]
		if e.valid && e.tag == tag {
			return s, e
		}
	}
	return s, nil
}

// Predict implements Predictor. The actual outcome is ignored.
func (b *BTB) Predict(pc int32, _ bool) bool {
	_, e := b.lookup(pc)
	return e != nil && e.counter >= 2
}

// Update implements Predictor: trains the counter, allocating an entry on a
// taken branch that missed.
func (b *BTB) Update(pc int32, taken bool) {
	s, e := b.lookup(pc)
	if e == nil {
		if !taken {
			return // not-taken misses are the default prediction; no entry
		}
		e = b.victim(s)
		e.valid = true
		e.tag = pc
		e.counter = 2 // weakly taken on allocation
	} else if taken {
		if e.counter < 3 {
			e.counter++
		}
	} else if e.counter > 0 {
		e.counter--
	}
	b.clocks[s]++
	e.lru = b.clocks[s]
}

func (b *BTB) victim(s int) *btbEntry {
	set := b.entries[s*b.ways : (s+1)*b.ways]
	var v *btbEntry
	for i := range set {
		e := &set[i]
		if !e.valid {
			return e
		}
		if v == nil || e.lru < v.lru {
			v = e
		}
	}
	return v
}

// Perfect is the oracle predictor of Figure 4: it always returns the actual
// outcome and never mispredicts.
type Perfect struct{}

// Predict implements Predictor by returning the actual outcome.
func (Perfect) Predict(_ int32, actual bool) bool { return actual }

// Update implements Predictor; the oracle needs no training.
func (Perfect) Update(int32, bool) {}

// StaticNotTaken predicts every conditional branch not taken — a baseline
// used by ablation benchmarks.
type StaticNotTaken struct{}

// Predict implements Predictor.
func (StaticNotTaken) Predict(int32, bool) bool { return false }

// Update implements Predictor.
func (StaticNotTaken) Update(int32, bool) {}

// StaticTaken predicts every conditional branch taken.
type StaticTaken struct{}

// Predict implements Predictor.
func (StaticTaken) Predict(int32, bool) bool { return true }

// Update implements Predictor.
func (StaticTaken) Update(int32, bool) {}
