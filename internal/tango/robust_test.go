package tango

// Tests for the simulator's failure-containment controls: the cycle budget,
// cooperative cancellation, and the machine-state dump on MachineError.

import (
	"context"
	"errors"
	"testing"

	"dynsched/internal/asm"
)

// spinner builds an infinite loop — a livelocked program that makes
// instruction progress but never halts.
func spinner() *asm.Program {
	b := asm.NewBuilder("spin")
	b.Label("top")
	b.J("top")
	return b.MustBuild()
}

// loadSpinner is spinner with a shared load and some arithmetic in the loop
// body, so the processors running it fall out of lockstep with pure spinners.
func loadSpinner(addr int64) *asm.Program {
	b := asm.NewBuilder("loadspin")
	p := b.Alloc()
	v := b.Alloc()
	b.Li(p, addr)
	b.Label("top")
	b.Ld(v, p, 0)
	b.Addi(v, v, 1)
	b.Addi(v, v, 2)
	b.J("top")
	return b.MustBuild()
}

func TestMaxCyclesKillsLivelock(t *testing.T) {
	cases := []struct {
		name  string
		progs []*asm.Program
		cycle uint64
		state string
	}{
		{"spinner", same(1, spinner()), 5001,
			"cpu0 ready@5001 at pc 0 (5001 instrs); locks held=0 lock-waiters=0"},
		{"mixed", []*asm.Program{spinner(), loadSpinner(0x4000), lockCounter(0x1000, 0x2000, 1000)}, 5001,
			"cpu0 ready@5001 at pc 0 (5001 instrs), cpu1 ready@5001 at pc 4 (4952 instrs), " +
				"cpu2 ready@5001 at pc 7 (4857 instrs); locks held=1 lock-waiters=0"},
	}
	for _, c := range cases {
		cfg := cfgN(len(c.progs), -1)
		cfg.MaxCycles = 5000
		_, err := Run(c.progs, nil, cfg)
		if err == nil {
			t.Fatalf("%s: livelocked program not killed by the cycle budget", c.name)
		}
		var me *MachineError
		if !errors.As(err, &me) {
			t.Fatalf("%s: err = %v, want *MachineError", c.name, err)
		}
		if me.Reason != "cycle budget" {
			t.Errorf("%s: reason = %q, want cycle budget", c.name, me.Reason)
		}
		// The dump is exact: every processor has run every instruction up to
		// the budget and none past it.
		if me.Cycle != c.cycle || me.State != c.state {
			t.Errorf("%s: killed at cycle %d with state\n  %q\nwant cycle %d with state\n  %q",
				c.name, me.Cycle, me.State, c.cycle, c.state)
		}
		if !me.Permanent() {
			t.Error("MachineError must be permanent (not retried)")
		}
	}
}

func TestMaxCyclesQuietOnHealthyRun(t *testing.T) {
	cfg := cfgN(2, 0)
	cfg.MaxCycles = 1 << 30
	if _, err := Run(same(2, lockCounter(0x1000, 0x2000, 10)), nil, cfg); err != nil {
		t.Fatalf("healthy run killed by generous cycle budget: %v", err)
	}
}

func TestDeadlockCarriesMachineState(t *testing.T) {
	hb := asm.NewBuilder("hog")
	lk := hb.Alloc()
	hb.Li(lk, 0x1000)
	hb.Lock(lk, 0)
	hb.Halt()
	wb := asm.NewBuilder("waiter")
	lk2 := wb.Alloc()
	wb.Li(lk2, 0x1000)
	wb.Lock(lk2, 0)
	wb.Halt()
	_, err := Run([]*asm.Program{hb.MustBuild(), wb.MustBuild()}, nil, cfgN(2, -1))
	var me *MachineError
	if !errors.As(err, &me) {
		t.Fatalf("err = %v, want *MachineError", err)
	}
	if me.Reason != "deadlock" {
		t.Errorf("reason = %q, want deadlock", me.Reason)
	}
	const wantState = "cpu0 halted@51 after 3 instrs, cpu1 blocked since 1 at pc 2 (2 instrs); locks held=1 lock-waiters=1"
	if me.Cycle != 0 || me.State != wantState {
		t.Errorf("deadlock at cycle %d with state\n  %q\nwant cycle 0 with state\n  %q", me.Cycle, me.State, wantState)
	}
}

func TestRunawayCarriesMachineState(t *testing.T) {
	cfg := cfgN(1, -1)
	cfg.MaxInstrs = 1000
	_, err := Run(same(1, spinner()), nil, cfg)
	var me *MachineError
	if !errors.As(err, &me) {
		t.Fatalf("err = %v, want *MachineError", err)
	}
	if me.Reason != "runaway" || me.State == "" {
		t.Errorf("runaway error incomplete: %+v", me)
	}
}

func TestSimulationCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := cfgN(1, -1)
	cfg.Ctx = ctx
	_, err := Run(same(1, spinner()), nil, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled simulation returned %v, want context.Canceled", err)
	}

	// A live context leaves a normal run untouched.
	cfg = cfgN(2, 0)
	cfg.Ctx = context.Background()
	if _, err := Run(same(2, lockCounter(0x1000, 0x2000, 10)), nil, cfg); err != nil {
		t.Fatalf("background ctx broke the simulation: %v", err)
	}
}
