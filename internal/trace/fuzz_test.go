package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// FuzzReadTrace throws arbitrary bytes at the deserializer. ReadTrace must
// never panic or allocate unboundedly, and anything it accepts must be a
// valid trace that survives a re-serialization round trip.
func FuzzReadTrace(f *testing.F) {
	// Seed corpus: valid traces in all three accepted formats (v3 chunked,
	// v2 flat, legacy v1), a multi-chunk v3 trace, truncations at every
	// structural boundary including the chunk header and mid-payload, bit
	// flips in the chunk payload, a corrupted footer, a bogus magic, and a
	// header claiming 2^34 events.
	var buf bytes.Buffer
	if _, err := miniTrace().WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)

	v2 := fixture(f, "mini.v2.trace")
	f.Add(v2)
	f.Add(fixture(f, "mini.v1.trace"))

	var multi bytes.Buffer
	if _, err := syntheticTrace(chunkEvents + 64).WriteTo(&multi); err != nil {
		f.Fatal(err)
	}
	f.Add(multi.Bytes())

	hdrEnd := 24 + len("mini") + 8
	for _, cut := range []int{0, 3, 10, 24, 30, hdrEnd, hdrEnd + chunkHdrSize,
		hdrEnd + chunkHdrSize + 7, len(valid) - footerSize, len(valid) - 1} {
		f.Add(append([]byte(nil), valid[:cut]...))
	}

	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)

	flippedV2 := append([]byte(nil), v2...)
	flippedV2[len(flippedV2)/2] ^= 0x40
	f.Add(flippedV2)

	badFoot := append([]byte(nil), valid...)
	badFoot[len(badFoot)-1] ^= 0xFF
	f.Add(badFoot)

	f.Add([]byte("NOPE0000000000000000000000000000"))

	huge := append([]byte(nil), valid[:24+len("mini")]...)
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], 1<<34)
	huge = append(huge, cnt[:]...)
	f.Add(huge)

	// Cursor-targeted seeds: a chunk whose declared event count straddles
	// the ring-lookback boundary, and a stream whose last chunk is torn
	// exactly at the footer so only the streaming footer check can notice.
	var big bytes.Buffer
	if _, err := syntheticTrace(2*chunkEvents + 137).WriteTo(&big); err != nil {
		f.Fatal(err)
	}
	f.Add(big.Bytes())
	f.Add(append([]byte(nil), big.Bytes()[:big.Len()-footerSize-1]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		ctr, cerr := cursorScan(data)
		// The streaming and materializing readers must agree on
		// acceptance: both reject, or both accept with identical events.
		if (err == nil) != (cerr == nil) {
			t.Fatalf("readers disagree: ReadTrace err=%v, Cursor err=%v", err, cerr)
		}
		if err != nil {
			return
		}
		if ctr.App != tr.App || ctr.CPU != tr.CPU || ctr.NumCPUs != tr.NumCPUs ||
			ctr.MissPenalty != tr.MissPenalty || len(ctr.Events) != len(tr.Events) {
			t.Fatal("cursor metadata or event count differs from ReadTrace")
		}
		for i := range tr.Events {
			if tr.Events[i] != ctr.Events[i] {
				t.Fatalf("cursor event %d differs from ReadTrace", i)
			}
		}
		// Accepted traces must be internally consistent and round-trip.
		if err := tr.Validate(); err != nil {
			t.Fatalf("ReadTrace accepted an invalid trace: %v", err)
		}
		var out bytes.Buffer
		if _, err := tr.WriteTo(&out); err != nil {
			t.Fatalf("re-serialization failed: %v", err)
		}
		if _, err := ReadTrace(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("re-serialized trace rejected: %v", err)
		}
	})
}

// cursorScan streams data through a Cursor, materializing what it accepts,
// so the fuzzer can compare the two readers byte-for-byte.
func cursorScan(data []byte) (*Trace, error) {
	c, err := NewCursor(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	m := c.Meta()
	tr := &Trace{App: m.App, CPU: m.CPU, NumCPUs: m.NumCPUs, MissPenalty: m.MissPenalty}
	for {
		e, err := c.Next()
		if err != nil {
			if err == io.EOF && len(tr.Events) == c.Len() {
				return tr, nil
			}
			return nil, err
		}
		tr.Events = append(tr.Events, *e)
	}
}
