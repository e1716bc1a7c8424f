package trace

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// encodings returns serialized traces in every accepted container
// version, keyed by trace and version: version 3 written by WriteTo, the
// flat-record versions read from their fixtures. The multichunk traces hold
// 2*chunkEvents+137 events, more than the Cursor's ring: three version-3
// chunks or seventeen flat-record batches, the last partial.
func encodings(t *testing.T) map[string][]byte {
	t.Helper()
	v3 := func(tr *Trace) []byte {
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	return map[string][]byte{
		"mini/v3":       v3(miniTrace()),
		"mini/v2":       fixture(t, "mini.v2.trace"),
		"mini/v1":       fixture(t, "mini.v1.trace"),
		"multichunk/v3": v3(syntheticTrace(2*chunkEvents + 137)),
		"multichunk/v2": fixture(t, "synth.v2.trace"),
		"multichunk/v1": fixture(t, "synth.v1.trace"),
	}
}

// cursorCollect streams every event out of b through a Cursor, returning
// the materialized copy and requiring a clean io.EOF (footer verified).
func cursorCollect(t *testing.T, b []byte) (*Cursor, []Event) {
	t.Helper()
	c, err := NewCursor(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("NewCursor: %v", err)
	}
	events := make([]Event, 0, c.Len())
	for {
		e, err := c.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Cursor.Next at event %d: %v", len(events), err)
		}
		events = append(events, *e)
	}
	if len(events) != c.Len() {
		t.Fatalf("cursor returned %d events, header declared %d", len(events), c.Len())
	}
	// EOF must be sticky.
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("Next after EOF = %v, want io.EOF", err)
	}
	return c, events
}

// TestCursorMatchesReadTrace is the event-for-event equivalence gate
// between the streaming and materializing readers, across every container
// version and across chunk boundaries (the synthetic trace spans three v3
// chunks, the last partial).
func TestCursorMatchesReadTrace(t *testing.T) {
	for name, b := range encodings(t) {
		t.Run(name, func(t *testing.T) {
			want, err := ReadTrace(bytes.NewReader(b))
			if err != nil {
				t.Fatalf("ReadTrace: %v", err)
			}
			c, got := cursorCollect(t, b)
			if c.Meta() != want.Meta() {
				t.Errorf("cursor meta %+v, ReadTrace meta %+v", c.Meta(), want.Meta())
			}
			if !reflect.DeepEqual(got, want.Events) {
				t.Error("cursor events differ from ReadTrace events")
			}
		})
	}
}

// TestCursorTornTail truncates a multi-chunk v3 container at every
// interesting boundary: the cursor must fail (or never reach a clean EOF),
// never silently return a short stream.
func TestCursorTornTail(t *testing.T) {
	var buf bytes.Buffer
	if _, err := syntheticTrace(chunkEvents + 64).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	hdrEnd := 24 + len("synth") + 8
	cuts := []int{
		hdrEnd + chunkHdrSize - 1, // torn chunk header
		hdrEnd + chunkHdrSize + 7, // torn chunk payload
		len(b) - footerSize - 2,   // torn final chunk CRC
		len(b) - footerSize,       // footer missing entirely
		len(b) - 1,                // torn footer
	}
	for _, cut := range cuts {
		c, err := NewCursor(bytes.NewReader(b[:cut]))
		if err != nil {
			continue // header itself torn: rejected even earlier
		}
		clean := true
		for {
			_, err := c.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				clean = false
				break
			}
		}
		if clean {
			t.Errorf("cursor reached clean EOF on container truncated to %d of %d bytes", cut, len(b))
		}
	}
}

// TestCursorRejectsCorruption flips a payload bit: the chunk CRC must stop
// the stream before the event is handed out.
func TestCursorRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if _, err := miniTrace().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[24+len("mini")+8+chunkHdrSize+5] ^= 0x10
	c, err := NewCursor(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("header rejected: %v", err)
	}
	if _, err := c.Next(); err == nil {
		t.Fatal("cursor handed out an event from a corrupt chunk")
	}
}

// TestCursorLookback verifies the documented pointer-retention contract:
// a pointer returned by Next stays valid (and unchanged) until
// CursorLookback further events have been returned.
func TestCursorLookback(t *testing.T) {
	tr := syntheticTrace(3*chunkEvents + 11)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := NewCursor(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	held := make([]*Event, 0, tr.Len())
	for i := 0; i < tr.Len(); i++ {
		e, err := c.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		held = append(held, e)
		// The event CursorLookback behind must still read back correctly.
		if k := i - CursorLookback; k >= 0 {
			if *held[k] != tr.Events[k] {
				t.Fatalf("pointer to event %d stale after %d further events", k, CursorLookback)
			}
		}
	}
}

// TestCursorAllocsPerChunk is the ≤1-alloc-per-chunk regression gate on
// the streaming decode path. Setup (ring, bufio, chunk buffer) allocates a
// fixed handful; the steady-state per-chunk cost must be zero, so total
// allocations stay below one per chunk for a many-chunk trace.
func TestCursorAllocsPerChunk(t *testing.T) {
	const nChunks = 16
	tr := syntheticTrace(nChunks*chunkEvents + 9)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	r := bytes.NewReader(b)
	allocs := testing.AllocsPerRun(5, func() {
		r.Reset(b)
		c, err := NewCursor(r)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := c.Next(); err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				break
			}
		}
	})
	if perChunk := allocs / (nChunks + 1); perChunk > 1 {
		t.Errorf("cursor scan cost %.0f allocs over %d chunks (%.2f/chunk), want <= 1/chunk",
			allocs, nChunks+1, perChunk)
	}
}
