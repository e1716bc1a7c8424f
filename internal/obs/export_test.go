package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynsched/internal/golden"
)

// goldenTracer builds a small deterministic pipeline: a hit load, two ALU
// ops, a missing load, and a mispredicted branch.
func goldenTracer() *PipeTracer {
	p := NewPipeTracer(8)
	p.Record(InstrRecord{Seq: 0, PC: 0, Disasm: "ld r1, 0(r2)",
		DecodedAt: 0, IssuedAt: 1, DoneAt: 2, RetiredAt: 2})
	p.Record(InstrRecord{Seq: 1, PC: 1, Disasm: "add r3, r1, r4",
		DecodedAt: 1, IssuedAt: 2, DoneAt: 3, RetiredAt: 3})
	p.Record(InstrRecord{Seq: 2, PC: 2, Disasm: "ld r5, 8(r2)",
		DecodedAt: 1, IssuedAt: 3, DoneAt: 53, RetiredAt: 53, Miss: true})
	p.Record(InstrRecord{Seq: 3, PC: 3, Disasm: "sub r6, r5, r1",
		DecodedAt: 2, IssuedAt: 53, DoneAt: 54, RetiredAt: 54})
	p.Record(InstrRecord{Seq: 4, PC: 4, Disasm: "beq r6, 2",
		DecodedAt: 3, IssuedAt: 54, DoneAt: 55, RetiredAt: 55, Mispredict: true})
	return p
}

func TestWriteKonataGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTracer().WriteKonata(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "Kanata\t0004\n") {
		t.Fatalf("missing Kanata header:\n%s", out)
	}
	golden.Check(t, "golden.kanata", buf.Bytes())
}

func TestWriteChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	// The export must be valid JSON in the trace-event container format.
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	// 1 process_name metadata event + 3 stage spans per instruction.
	if want := 1 + 3*5; len(doc.TraceEvents) != want {
		t.Errorf("traceEvents = %d, want %d", len(doc.TraceEvents), want)
	}
	golden.Check(t, "golden_chrome.json", buf.Bytes())
}

func TestWritePipeTraceFileFormats(t *testing.T) {
	dir := t.TempDir()
	kan := filepath.Join(dir, "p.kanata")
	chr := filepath.Join(dir, "p.json")
	if err := WritePipeTraceFile(goldenTracer(), kan); err != nil {
		t.Fatal(err)
	}
	if err := WritePipeTraceFile(goldenTracer(), chr); err != nil {
		t.Fatal(err)
	}
	kb, _ := os.ReadFile(kan)
	if !strings.HasPrefix(string(kb), "Kanata\t0004") {
		t.Errorf(".kanata path did not produce a Konata log: %.40s", kb)
	}
	cb, _ := os.ReadFile(chr)
	if !json.Valid(cb) {
		t.Errorf(".json path did not produce valid JSON: %.40s", cb)
	}
}
