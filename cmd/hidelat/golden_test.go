package main

// The CLI's end-to-end safety net: every step of `all`, in text and CSV
// mode, is pinned byte for byte at two worker counts, and the run ledger's
// determinism checksum is pinned with it. Regenerate after a deliberate
// model change with
//
//	go test ./cmd/hidelat -run TestCLIAllGolden -update

import (
	"path/filepath"
	"testing"

	"dynsched/internal/golden"
	"dynsched/internal/obs"
)

// allFNV is the ledger metrics checksum of the small-scale lu,mp3d `all` run.
const allFNV = "d22a5a4aa48a30c2"

func TestCLIAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment four times")
	}
	for _, mode := range []struct{ name, golden string }{
		{"text", "all-small.golden"},
		{"csv", "all-small-csv.golden"},
	} {
		for _, j := range []string{"1", "3"} {
			ledger := filepath.Join(t.TempDir(), "runs.jsonl")
			args := []string{"-scale", "small", "-apps", "lu,mp3d", "-j", j, "-ledger", ledger}
			if mode.name == "csv" {
				args = append(args, "-csv")
			}
			out, err := captureRun(t, append(args, "all")...)
			if err != nil {
				t.Fatalf("%s -j %s: %v", mode.name, j, err)
			}
			golden.Check(t, mode.golden, []byte(out))
			recs, err := obs.ReadLedger(ledger)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 1 || recs[0].MetricsFNV != allFNV {
				t.Errorf("%s -j %s: ledger metrics_fnv = %+v, want one record with %s", mode.name, j, recs, allFNV)
			}
		}
	}
}
