package main

// CLI-level tests for distributed sweeps: flag validation for the
// -coordinator/-lease/-queue-max knobs and the worker subcommand, plus an
// in-process coordinator+worker run whose stdout must be byte-identical to
// the single-process run of the same experiment.

import (
	"net"
	"strings"
	"testing"
)

func TestCLIDistFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-lease", "0s", "fig3"}, "-lease"},
		{[]string{"-lease", "-3s", "fig3"}, "-lease"},
		{[]string{"-queue-max", "0", "fig3"}, "-queue-max"},
		// Distributed knobs without distributed mode are a usage error, not
		// silently ignored.
		{[]string{"-lease", "5s", "fig3"}, "-coordinator"},
		{[]string{"-queue-max", "64", "fig3"}, "-coordinator"},
		// The coordinator only shards the column experiments.
		{[]string{"-coordinator", "127.0.0.1:0", "table1"}, "column experiments"},
		{[]string{"-coordinator", "127.0.0.1:0", "all"}, "column experiments"},
		{[]string{"-coordinator", "127.0.0.1:0", "analyze"}, "column experiments"},
	}
	for _, tc := range cases {
		_, err := captureRun(t, tc.args...)
		if err == nil {
			t.Errorf("%v accepted, want a usage error", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want it to name %s", tc.args, err, tc.want)
		}
	}
}

func TestCLIWorkerFlagValidation(t *testing.T) {
	if _, err := captureRun(t, "worker"); err == nil || !strings.Contains(err.Error(), "-join") {
		t.Errorf("worker without -join: err = %v, want it to demand -join", err)
	}
	if _, err := captureRun(t, "worker", "-join", "not-a-url"); err == nil {
		t.Error("worker accepted a bad -join URL")
	}
	if _, err := captureRun(t, "worker", "-join", "http://127.0.0.1:1", "extra"); err == nil {
		t.Error("worker accepted a positional argument")
	}
}

// A distributed sweep run through the CLI — coordinator process logic and
// a worker joined over real HTTP — prints byte-identical stdout to the
// local single-process run, for a figure, the §7 summary folded from its
// sweep, and the ablations.
func TestCLIDistributedFig3MatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed sweeps are seconds long")
	}
	for _, step := range []string{"fig3", "summary", "ablate"} {
		t.Run(step, func(t *testing.T) { distributedMatchesLocal(t, step) })
	}
}

func distributedMatchesLocal(t *testing.T, step string) {
	local, err := captureRun(t, "-scale", "small", "-apps", "mp3d", "-j", "2", step)
	if err != nil {
		t.Fatalf("local run: %v", err)
	}

	// Reserve a port for the coordinator so the worker knows where to join.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	workerDone := make(chan error, 1)
	go func() {
		// The worker retries until the coordinator is listening.
		workerDone <- run([]string{"worker", "-join", "http://" + addr, "-id", "cli-test"})
	}()
	distOut, err := captureRun(t, "-scale", "small", "-apps", "mp3d",
		"-coordinator", addr, "-lease", "2s", "-queue-max", "64", step)
	if err != nil {
		t.Fatalf("coordinator run: %v", err)
	}
	if err := <-workerDone; err != nil {
		t.Fatalf("worker: %v", err)
	}
	if distOut != local {
		t.Errorf("distributed stdout differs from local run\nlocal:\n%s\ndistributed:\n%s", local, distOut)
	}
}
