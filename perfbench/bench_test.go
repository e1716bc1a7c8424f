package main

// The benchmark's own tests, run from this directory with `go test ./...`.
// They run every workload at small scale in both modes, check the printed
// metrics against BENCHMARK.json, check that the correctness gate trips,
// and compare fig3-cold's cells with hidelat's run ledger. Set
// PERFBENCH_PAPER=1 to make the ledger comparison at paper scale too.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dynsched/internal/apps"
	"dynsched/internal/exp"
	"dynsched/internal/obs"
)

var workloadNames = []string{"fig3-cold", "analyze-replay", "sweep-warm"}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Work     []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runBench runs the benchmark in-process and parses its last output line.
func runBench(t *testing.T, args ...string) (int, runResult, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	args = append([]string{"--scale", "small", "--seconds", "0.2", "--out", t.TempDir()}, args...)
	code := run(args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil && code == 0 {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	return code, res, out.String() + errOut.String()
}

func TestWorkloadsPrintEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Work) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Work), len(workloadNames))
	}
	for i, w := range spec.Work {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloadNames[i])
		}
	}
	for _, name := range workloadNames {
		for mode, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", name, mode), func(t *testing.T) {
				code, res, out := runBench(t, "--workload", name, "--trace", fmt.Sprint(mode))
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, out)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// tampered writes a copy of the embedded expected hashes with one entry
// replaced.
func tampered(t *testing.T, workload string) string {
	t.Helper()
	var x expectedFile
	if err := json.Unmarshal(embeddedExpected, &x); err != nil {
		t.Fatal(err)
	}
	if x.hash(apps.ScaleSmall, workload, 1) == "" {
		t.Fatalf("expected.json records no small-scale %s hash for processor 1", workload)
	}
	x.Hashes["small"][workload]["1"] = "0123456789abcdef"
	data, err := json.Marshal(x)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "expected.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGateTripsOnTamperedHash(t *testing.T) {
	for _, c := range []struct{ workload, tamper string }{
		{"fig3-cold", "fig3-cold"},
		{"analyze-replay", "analyze-replay"},
		{"sweep-warm", "sweep-warm"},
		// sweep-warm's Figure 3 cells must equal fig3-cold's.
		{"sweep-warm", "fig3-cold"},
	} {
		t.Run(c.workload+"/"+c.tamper, func(t *testing.T) {
			code, res, out := runBench(t, "--workload", c.workload, "--seed", "0", "--expected", tampered(t, c.tamper))
			if code == 0 || res.Correct {
				t.Fatalf("exit %d, correct %t with a tampered %s hash\n%s", code, res.Correct, c.tamper, out)
			}
			if !strings.Contains(out, "INCORRECT") {
				t.Errorf("no INCORRECT diagnostic\n%s", out)
			}
		})
	}
}

func TestSeedSelectsProcessor(t *testing.T) {
	for seed, want := range map[int64]int{0: 1, 6: 7, 14: 15, 15: 1, 29: 15, -1: 15} {
		if got := traceCPUForSeed(seed); got != want {
			t.Errorf("seed %d: tracecpu %d, want %d", seed, got, want)
		}
	}
}

// TestFig3MatchesHidelatLedger checks that the benchmark's fig3-cold
// options reproduce `hidelat fig3 -ledger` cell for cell.
func TestFig3MatchesHidelatLedger(t *testing.T) {
	scales := []apps.Scale{apps.ScaleSmall}
	if os.Getenv("PERFBENCH_PAPER") == "1" {
		scales = append(scales, apps.ScalePaper)
	}
	dir := t.TempDir()
	hidelat := filepath.Join(dir, "hidelat")
	if out, err := exec.Command("go", "build", "-o", hidelat, "dynsched/cmd/hidelat").CombinedOutput(); err != nil {
		t.Fatalf("build hidelat: %v\n%s", err, out)
	}
	for _, scale := range scales {
		t.Run(scale.String(), func(t *testing.T) {
			ledger := filepath.Join(dir, scale.String()+".jsonl")
			cmd := exec.Command(hidelat, "fig3", "-scale", scale.String(), "-j", "2", "-ledger", ledger)
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("hidelat: %v\n%s", err, out)
			}
			recs, err := obs.ReadLedger(ledger)
			if err != nil || len(recs) != 1 {
				t.Fatalf("ledger: %d records, %v", len(recs), err)
			}
			rec := recs[0]

			c := &config{scale: scale, traceCPU: traceCPUForSeed(0)}
			e := exp.New(c.options(benchWorkers))
			acs, err := e.Figure3All()
			if err != nil {
				t.Fatal(err)
			}
			out, err := expOutputs(e, sweep{Name: "fig3", Apps: acs})
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range out.Gens {
				if got := rec.Apps[g.App].Cycles; got != g.Cycles {
					t.Errorf("%s: ledger tango cycles %d, benchmark %d", g.App, got, g.Cycles)
				}
			}
			n := 0
			for _, ac := range acs {
				for _, col := range ac.Cols {
					n++
					lc, ok := rec.Cells["fig3."+ac.App+"."+col.Label]
					mcpi := float64(col.Breakdown.Read+col.Breakdown.Write) / float64(col.Instructions)
					if !ok || lc.Cycles != col.Breakdown.Total() || lc.Instructions != col.Instructions || lc.MCPI != mcpi {
						t.Errorf("%s %s: ledger %+v (present %t), benchmark cycles %d instructions %d mcpi %v",
							ac.App, col.Label, lc, ok, col.Breakdown.Total(), col.Instructions, mcpi)
					}
				}
			}
			if n != len(rec.Cells) {
				t.Errorf("benchmark has %d cells, ledger %d", n, len(rec.Cells))
			}
			var x expectedFile
			if err := json.Unmarshal(embeddedExpected, &x); err != nil {
				t.Fatal(err)
			}
			if got, want := out.result().Hash, x.hash(scale, "fig3-cold", c.traceCPU); got != want {
				t.Errorf("outputs %s, expected.json records %s", got, want)
			}
		})
	}
}
