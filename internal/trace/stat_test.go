package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestStatV3(t *testing.T) {
	tr := syntheticTrace(3*chunkEvents + 100) // 4 chunks, last one partial
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Stat(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Version != formatVersion || s.App != tr.App || s.Events != uint64(tr.Len()) {
		t.Errorf("stat identity = %+v", s)
	}
	if s.Chunks != 4 || s.ChunksOK != 4 {
		t.Errorf("chunks = %d ok %d, want 4/4", s.Chunks, s.ChunksOK)
	}
	if !s.HasFooter || !s.FooterOK {
		t.Errorf("footer = present %v ok %v, want true/true", s.HasFooter, s.FooterOK)
	}
	if s.FileBytes != uint64(n) {
		t.Errorf("FileBytes = %d, want the %d WriteTo reported", s.FileBytes, n)
	}
	if bpe := s.BytesPerEvent(); bpe <= 0 || bpe >= eventSize {
		t.Errorf("bytes/event = %.2f, want (0, %d): v3 must beat the flat encoding", bpe, eventSize)
	}
	for _, want := range []string{"format v3", "4 chunks (4/4 CRC ok)", "footer CRC ok", "bytes/event"} {
		if !strings.Contains(s.Format(), want) {
			t.Errorf("Format() missing %q: %s", want, s.Format())
		}
	}
}

func TestStatV2Flat(t *testing.T) {
	n := 2*chunkEvents + 137 // the synth fixture's event count
	s, err := Stat(bytes.NewReader(fixture(t, "synth.v2.trace")))
	if err != nil {
		t.Fatal(err)
	}
	if s.Version != v2Version || s.Chunks != 0 {
		t.Errorf("v2 stat = %+v", s)
	}
	if s.PayloadBytes != uint64(n*eventSize) || s.BytesPerEvent() != eventSize {
		t.Errorf("flat payload = %d (%.1f/event), want %d", s.PayloadBytes, s.BytesPerEvent(), n*eventSize)
	}
	if !s.HasFooter || !s.FooterOK {
		t.Errorf("v2 footer = %+v", s)
	}
}

// TestStatCorruption: a flipped payload bit is reported (bad chunk, bad
// footer) rather than failing the walk, while structural truncation fails.
func TestStatCorruption(t *testing.T) {
	tr := syntheticTrace(2 * chunkEvents)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	data[len(data)/2] ^= 0x40 // inside the second chunk's payload

	s, err := Stat(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("corrupted payload must stat cleanly, got %v", err)
	}
	if s.Chunks != 2 || s.ChunksOK != 1 {
		t.Errorf("chunks = %d ok %d, want 2/1 after corruption", s.Chunks, s.ChunksOK)
	}
	if s.FooterOK {
		t.Error("footer CRC still ok after payload corruption")
	}
	if !strings.Contains(s.Format(), "1/2 CRC ok") || !strings.Contains(s.Format(), "FOOTER CRC MISMATCH") {
		t.Errorf("Format() does not surface corruption: %s", s.Format())
	}

	if _, err := Stat(bytes.NewReader(data[:len(data)/3])); err == nil {
		t.Error("truncated file must fail Stat")
	}
	if _, err := Stat(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("garbage must fail Stat")
	}
}
