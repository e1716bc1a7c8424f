package trace

import (
	"bytes"
	"reflect"
	"testing"

	"dynsched/internal/isa"
)

// syntheticTrace builds a Validate-clean trace of n events with the mix the
// v3 encoder is tuned for: straight-line ALU runs, strided loads and stores
// with occasional misses, immediates, and backward taken branches.
func syntheticTrace(n int) *Trace {
	t := &Trace{App: "synth", NumCPUs: 16, MissPenalty: 50}
	t.Events = make([]Event, 0, n)
	pc := int32(0)
	addr := uint64(1 << 20)
	for i := 0; i < n; i++ {
		var e Event
		e.PC = pc
		e.NextPC = pc + 1
		switch i % 7 {
		case 0, 1, 2:
			e.Instr = isa.Instr{Op: isa.OpAdd, Dst: uint8(1 + i%29), Src1: 2, Src2: 3}
		case 3:
			e.Instr = isa.Instr{Op: isa.OpLd, Dst: 4, Src1: 5}
			e.Addr = addr
			addr += 8
			if i%21 == 3 {
				e.Miss = true
				e.Latency = 50
			} else {
				e.Latency = 1
			}
		case 4:
			e.Instr = isa.Instr{Op: isa.OpSt, Src1: 4, Src2: 5}
			e.Addr = addr - 8
			e.Latency = 1
		case 5:
			e.Instr = isa.Instr{Op: isa.OpLi, Dst: 6, Imm: int64(i)}
		case 6:
			taken := i%28 == 6 && pc >= 6
			target := pc - 6
			e.Instr = isa.Instr{Op: isa.OpBnez, Src1: 6, Imm: int64(target)}
			e.Taken = taken
			if taken {
				e.NextPC = target
			}
		}
		pc = e.NextPC
		t.Events = append(t.Events, e)
	}
	return t
}

func TestTraceRoundTrip(t *testing.T) {
	orig := miniTrace()
	orig.App = "roundtrip"
	orig.CPU = 3
	orig.NumCPUs = 16
	var buf bytes.Buffer
	n, err := orig.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != orig.App || got.CPU != orig.CPU || got.NumCPUs != orig.NumCPUs ||
		got.MissPenalty != orig.MissPenalty {
		t.Errorf("header mismatch: %+v vs %+v", got, orig)
	}
	if !reflect.DeepEqual(got.Events, orig.Events) {
		t.Error("events did not survive the round trip")
	}
}

// TestTraceRoundTripMultiChunk pushes a trace across several chunk
// boundaries so the per-chunk delta-state reset is exercised, including a
// boundary that lands mid-way through an address run.
func TestTraceRoundTripMultiChunk(t *testing.T) {
	orig := syntheticTrace(2*chunkEvents + 137)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, orig.Events) {
		t.Error("multi-chunk events did not survive the round trip")
	}
}

// TestV3SmallerThanV2 checks the point of the format: on a representative
// instruction mix the delta/varint encoding must save at least 30% over the
// flat 40-byte records.
func TestV3SmallerThanV2(t *testing.T) {
	tr := syntheticTrace(20000)
	var v3 bytes.Buffer
	if _, err := tr.WriteTo(&v3); err != nil {
		t.Fatal(err)
	}
	// The version-2 size: header and app name, the flat records, footer.
	v2 := 24 + len(tr.App) + 8 + eventSize*tr.Len() + footerSize
	if float64(v3.Len()) > 0.7*float64(v2) {
		t.Errorf("v3 is %d bytes vs v2's %d (%.1f%%): want at least 30%% smaller",
			v3.Len(), v2, 100*float64(v3.Len())/float64(v2))
	}
}

func TestReadTraceBadMagic(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte("NOPE0000000000000000000000000000"))); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestReadTraceTruncated(t *testing.T) {
	var buf bytes.Buffer
	if _, err := miniTrace().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cuts land mid-header, mid-count, mid-chunk-header, mid-payload, and
	// just before the final footer byte.
	hdrEnd := 24 + len("mini") + 8
	for _, cut := range []int{0, 3, 10, 30, hdrEnd + 4, hdrEnd + chunkHdrSize + 3, len(full) - 1} {
		if _, err := ReadTrace(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestReadTraceBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if _, err := miniTrace().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 99 // version field
	if _, err := ReadTrace(bytes.NewReader(b)); err == nil {
		t.Error("future version accepted")
	}
}

// TestReadTraceBadOpcode serializes a trace whose opcode byte is garbage —
// the writer does not validate, so the stream is structurally well-formed
// with intact checksums — and demands the reader's opcode check reject it.
func TestReadTraceBadOpcode(t *testing.T) {
	tr := miniTrace()
	tr.Events[0].Instr.Op = isa.Op(0xFF)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(&buf); err == nil {
		t.Error("invalid opcode accepted")
	}
}

// TestReadTraceInvalidLatencyRejected serializes a structurally well-formed
// trace violating a semantic invariant (a memory event with zero latency):
// checksums all match, so only the post-decode Validate can reject it.
func TestReadTraceInvalidLatencyRejected(t *testing.T) {
	tr := miniTrace()
	tr.Events[1].Latency = 0
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(&buf); err == nil {
		t.Error("zero-latency memory event accepted (Validate should reject)")
	}
}
