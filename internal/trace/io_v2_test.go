package trace

import (
	"bytes"
	"encoding/binary"
	"os"
	"reflect"
	"strings"
	"testing"
)

// fixture reads a serialized trace from testdata. The flat-record
// version-2 and version-1 fixtures were written by the version-2 writer
// before it was retired: mini.* hold miniTrace, synth.* hold
// syntheticTrace(2*chunkEvents+137), which spans seventeen flat-record
// batches, the last partial, and wraps the Cursor's event ring.
func fixture(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestReadTraceV2(t *testing.T) {
	orig := miniTrace()
	got, err := ReadTrace(bytes.NewReader(fixture(t, "mini.v2.trace")))
	if err != nil {
		t.Fatalf("v2 trace rejected: %v", err)
	}
	if !reflect.DeepEqual(got.Events, orig.Events) {
		t.Error("v2 events did not survive the round trip")
	}
}

func TestReadTraceLegacyV1(t *testing.T) {
	orig := miniTrace()
	b := fixture(t, "mini.v1.trace")
	got, err := ReadTrace(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("legacy v1 trace rejected: %v", err)
	}
	if !reflect.DeepEqual(got.Events, orig.Events) {
		t.Error("legacy v1 events did not survive the round trip")
	}
}

func TestReadTraceV2CRCMismatch(t *testing.T) {
	b := fixture(t, "mini.v2.trace")
	// Flip one bit in an event's address field: record layout stays valid,
	// so only the checksum can catch it.
	off := 24 + len("mini") + 8 + 24
	b[off] ^= 0x01
	_, err := ReadTrace(bytes.NewReader(b))
	if err == nil {
		t.Fatal("bit-flipped trace accepted")
	}
	if !strings.Contains(err.Error(), "CRC") {
		t.Errorf("bit flip rejected with %v, want a CRC error", err)
	}
}

func TestReadTraceV3ChunkCRCMismatch(t *testing.T) {
	var buf bytes.Buffer
	if _, err := miniTrace().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Flip one bit in the middle of the first chunk's payload: the chunk
	// CRC must reject it before the varint decoder ever sees the bytes.
	off := 24 + len("mini") + 8 + chunkHdrSize + 5
	b[off] ^= 0x10
	_, err := ReadTrace(bytes.NewReader(b))
	if err == nil {
		t.Fatal("bit-flipped v3 chunk accepted")
	}
	if !strings.Contains(err.Error(), "CRC") {
		t.Errorf("chunk bit flip rejected with %v, want a CRC error", err)
	}
}

// TestReadTraceV3BadChunkHeader corrupts a chunk header's declared sizes:
// the reader must reject implausible counts without huge allocations.
func TestReadTraceV3BadChunkHeader(t *testing.T) {
	var buf bytes.Buffer
	if _, err := miniTrace().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	off := 24 + len("mini") + 8
	for _, bad := range []struct {
		name  string
		patch func(b []byte)
	}{
		{"zero events", func(b []byte) { binary.LittleEndian.PutUint32(b[off:], 0) }},
		{"too many events", func(b []byte) { binary.LittleEndian.PutUint32(b[off:], 1<<31) }},
		{"oversized payload", func(b []byte) { binary.LittleEndian.PutUint32(b[off+4:], 1<<30) }},
		{"undersized payload", func(b []byte) { binary.LittleEndian.PutUint32(b[off+4:], 1) }},
	} {
		b := append([]byte(nil), orig...)
		bad.patch(b)
		if _, err := ReadTrace(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: corrupted chunk header accepted", bad.name)
		}
	}
}

func TestReadTraceFooterTruncated(t *testing.T) {
	var buf bytes.Buffer
	if _, err := miniTrace().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	for cut := len(b) - footerSize; cut < len(b); cut++ {
		if _, err := ReadTrace(bytes.NewReader(b[:cut])); err == nil {
			t.Errorf("trace with footer truncated to %d of %d bytes accepted", cut, len(b))
		}
	}
}

func TestReadTraceBadFooterMagic(t *testing.T) {
	var buf bytes.Buffer
	if _, err := miniTrace().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(b)-footerSize] = 'X'
	if _, err := ReadTrace(bytes.NewReader(b)); err == nil {
		t.Error("corrupted footer magic accepted")
	}
}

// TestReadTraceHugeCountNoOOM feeds a header that claims 2^34 events but
// carries none. The reader must fail on the missing data without first
// allocating the declared (multi-hundred-gigabyte) event slice.
func TestReadTraceHugeCountNoOOM(t *testing.T) {
	for _, version := range []uint32{legacyVersion, v2Version, formatVersion} {
		var b bytes.Buffer
		var hdr [24]byte
		copy(hdr[0:4], traceMagic[:])
		binary.LittleEndian.PutUint32(hdr[4:8], version)
		binary.LittleEndian.PutUint32(hdr[16:20], 50)
		b.Write(hdr[:])
		var cnt [8]byte
		binary.LittleEndian.PutUint64(cnt[:], 1<<34)
		b.Write(cnt[:])
		if _, err := ReadTrace(bytes.NewReader(b.Bytes())); err == nil {
			t.Errorf("version %d: event count with no event data accepted", version)
		}
	}
}
