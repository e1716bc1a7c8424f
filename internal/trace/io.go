package trace

// Binary trace serialization. Traces are expensive to generate at paper
// scale (they require the full 16-processor simulation), so the tools can
// save them to disk and replay them repeatedly — the same workflow the
// paper's trace-driven methodology implies.
//
// Current format, version 3 (little endian):
//
//	magic   "DSTR"                      4 bytes
//	version uint32                      currently 3
//	cpu, numCPUs, missPenalty uint32    12 bytes
//	appLen  uint32, app bytes           variable
//	count   uint64                      number of events
//	chunks  until count events are consumed:
//	    nEvents uint32                  events in this chunk (≤ 4096)
//	    nBytes  uint32                  encoded payload size
//	    payload nBytes bytes            varint/delta-encoded events
//	    crc32   uint32                  CRC32-IEEE of the payload
//	footer  "DSCR" + crc32 uint32       8 bytes, checksums the whole file
//
// Within a chunk each event is a flags byte, an opcode byte, and then only
// the fields the flags declare present, delta-encoded against a per-chunk
// predictor: the PC is encoded only when it differs from the previous
// event's NextPC (flag bit 7), NextPC is stored as a zigzag varint of
// NextPC−(PC+1) (zero for straight-line code, so one byte), the effective
// address as a zigzag varint delta against the previous address-bearing
// event, and Imm/Latency/Wait as varints elided entirely when zero. An ALU
// instruction in straight-line code therefore costs 3 bytes instead of the
// 40-byte flat record of versions 1 and 2. Delta state resets at every
// chunk boundary, so a corrupted chunk cannot poison its successors, and
// each chunk carries its own CRC so corruption is localized on read.
//
// Versions 1 and 2 use flat 40-byte records (PC int32, NextPC int32, Op,
// Dst, Src1, Src2, flags, 3 pad, Imm int64, Addr uint64, Latency uint32,
// Wait uint32); version 2 added the whole-file CRC footer. ReadTrace still
// accepts both; nothing writes them any more.
//
// There are two readers over this container: ReadTrace materializes the
// whole event slice, and Cursor (cursor.go) streams chunk-resident events
// through a fixed ring without ever holding the full trace. Both are built
// from the same header/chunk/record helpers below, so the accepted byte
// streams are identical by construction of the checks, and the equivalence
// is additionally pinned by tests.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"io/fs"

	"dynsched/internal/isa"
)

var traceMagic = [4]byte{'D', 'S', 'T', 'R'}

// formatVersion is bumped whenever the on-disk layout changes. Version 2
// added the CRC32 footer; version 3 replaced the flat records with chunked
// varint/delta encoding.
const formatVersion = 3

// FormatVersion is the current on-disk format version, exported so cache
// keys can incorporate it: a format bump must invalidate every cached trace
// artifact, since the content address is computed over the serialized bytes.
const FormatVersion = formatVersion

// v2Version is the flat-record format with a CRC footer, still accepted by
// ReadTrace.
const v2Version = 2

// legacyVersion is the oldest version ReadTrace still accepts: the same
// flat record layout as version 2, but without the integrity footer.
const legacyVersion = 1

// eventSize is the flat record size of versions 1 and 2.
const eventSize = 40

// footerMagic guards the trailing CRC32 footer (versions ≥ 2); it doubles
// as a cheap truncation detector before the checksum is even compared.
var footerMagic = [4]byte{'D', 'S', 'C', 'R'}

const footerSize = 8

// recBatch is how many flat event records are decoded per buffer operation
// in the version-1/2 paths; paper-scale traces have millions of events, so
// batching keeps the per-event cost to plain stores.
const recBatch = 512

// chunkEvents is the maximum events per version-3 chunk. 4096 keeps the
// chunk buffer (≤ chunkEvents·maxEventEnc bytes) comfortably cache-sized
// while amortizing the 12-byte chunk overhead to noise.
const chunkEvents = 4096

// maxEventEnc bounds the encoded size of one version-3 event: flags 1 +
// op 1 + dPC ≤10 + dNextPC ≤10 + regs 3 + imm ≤10 + addr ≤10 + latency ≤5
// + wait ≤5. Used to reject implausible chunk headers before allocating.
const maxEventEnc = 55

const chunkHdrSize = 8 // nEvents uint32 + nBytes uint32

// maxEventCount is the implausibility bound on the declared event count.
const maxEventCount = 1 << 34

// Flat-record flag bits (versions 1 and 2).
const (
	flagMiss  = 1 << 0
	flagTaken = 1 << 1
)

// Version-3 per-event flag bits. Bits 2–6 declare which optional fields
// follow; a clear bit means the field is zero and absent from the stream.
const (
	f3Miss    = 1 << 0 // Miss
	f3Taken   = 1 << 1 // Taken
	f3Regs    = 1 << 2 // Dst, Src1, Src2 bytes present (any nonzero)
	f3Imm     = 1 << 3 // Imm varint present
	f3Addr    = 1 << 4 // Addr delta varint present
	f3Latency = 1 << 5 // Latency uvarint present
	f3Wait    = 1 << 6 // Wait uvarint present
	f3PCJump  = 1 << 7 // PC ≠ previous event's NextPC; dPC varint present
)

// WriteTo serializes the trace in the current (version 3) format. It
// returns the number of bytes written. It is a thin loop over the streaming
// Writer, so file-producing tools that never materialize a Trace emit
// byte-identical containers.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	sw, err := NewWriter(w, t.Meta(), uint64(len(t.Events)))
	if err != nil {
		return sw.BytesWritten(), err
	}
	for i := range t.Events {
		if err := sw.Write(&t.Events[i]); err != nil {
			return sw.BytesWritten(), err
		}
	}
	if err := sw.Close(); err != nil {
		return sw.BytesWritten(), err
	}
	return sw.BytesWritten(), nil
}

// ContentAddr returns the trace's content address: the FNV-64a of its
// canonical (version 3) serialization, formatted as 16 hex digits. Version-3
// re-encoding is byte-deterministic, so this is the same address the
// distributed coordinator computes over the bytes it serves from
// /traces/{addr} and the address the result cache keys cell entries by —
// one identity for a trace's content everywhere it travels.
func (t *Trace) ContentAddr() (string, error) {
	h := fnv.New64a()
	if _, err := t.WriteTo(h); err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// encodeHeader builds the fixed header, app name, and event count shared by
// every format version.
func encodeHeader(m Meta, version uint32, count uint64) []byte {
	b := make([]byte, 24, 24+len(m.App)+8)
	copy(b[0:4], traceMagic[:])
	binary.LittleEndian.PutUint32(b[4:8], version)
	binary.LittleEndian.PutUint32(b[8:12], uint32(m.CPU))
	binary.LittleEndian.PutUint32(b[12:16], uint32(m.NumCPUs))
	binary.LittleEndian.PutUint32(b[16:20], m.MissPenalty)
	binary.LittleEndian.PutUint32(b[20:24], uint32(len(m.App)))
	b = append(b, m.App...)
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], count)
	return append(b, cnt[:]...)
}

// appendEventV3 encodes one event against the chunk's delta state: predPC
// is the previous event's NextPC (what straight-line code predicts for this
// PC), prevAddr the address of the previous address-bearing event.
func appendEventV3(buf []byte, e *Event, predPC *int32, prevAddr *uint64) []byte {
	var flags uint8
	if e.Miss {
		flags |= f3Miss
	}
	if e.Taken {
		flags |= f3Taken
	}
	if e.Instr.Dst != 0 || e.Instr.Src1 != 0 || e.Instr.Src2 != 0 {
		flags |= f3Regs
	}
	if e.Instr.Imm != 0 {
		flags |= f3Imm
	}
	if e.Addr != 0 {
		flags |= f3Addr
	}
	if e.Latency != 0 {
		flags |= f3Latency
	}
	if e.Wait != 0 {
		flags |= f3Wait
	}
	if e.PC != *predPC {
		flags |= f3PCJump
	}
	buf = append(buf, flags, uint8(e.Instr.Op))
	if flags&f3PCJump != 0 {
		buf = binary.AppendVarint(buf, int64(e.PC)-int64(*predPC))
	}
	buf = binary.AppendVarint(buf, int64(e.NextPC)-int64(e.PC)-1)
	if flags&f3Regs != 0 {
		buf = append(buf, e.Instr.Dst, e.Instr.Src1, e.Instr.Src2)
	}
	if flags&f3Imm != 0 {
		buf = binary.AppendVarint(buf, e.Instr.Imm)
	}
	if flags&f3Addr != 0 {
		// Wrapping uint64 subtraction: the zigzag varint round-trips any
		// delta, and the decoder adds it back with the same wrap.
		buf = binary.AppendVarint(buf, int64(e.Addr-*prevAddr))
		*prevAddr = e.Addr
	}
	if flags&f3Latency != 0 {
		buf = binary.AppendUvarint(buf, uint64(e.Latency))
	}
	if flags&f3Wait != 0 {
		buf = binary.AppendUvarint(buf, uint64(e.Wait))
	}
	*predPC = e.NextPC
	return buf
}

// readHeader parses the magic, version, machine parameters, app name, and
// declared event count shared by every format version, folding the consumed
// bytes into the running whole-file CRC at *sum. The checksum is a plain
// uint32 advanced with crc32.Update rather than a hash.Hash32 so the fixed
// read buffers never escape through an interface call (the streaming read
// path is allocation-free per chunk).
func readHeader(br *bufio.Reader, sum *uint32) (version uint32, m Meta, count uint64, err error) {
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, m, 0, fmt.Errorf("trace: short header: %w", err)
	}
	*sum = crc32.Update(*sum, crc32.IEEETable, hdr[:])
	if [4]byte(hdr[0:4]) != traceMagic {
		return 0, m, 0, fmt.Errorf("trace: bad magic %q", hdr[0:4])
	}
	version = binary.LittleEndian.Uint32(hdr[4:8])
	switch version {
	case legacyVersion, v2Version, formatVersion:
	default:
		return 0, m, 0, fmt.Errorf("trace: unsupported format version %d (want %d, %d, or %d)",
			version, legacyVersion, v2Version, formatVersion)
	}
	m.CPU = int(binary.LittleEndian.Uint32(hdr[8:12]))
	m.NumCPUs = int(binary.LittleEndian.Uint32(hdr[12:16]))
	m.MissPenalty = binary.LittleEndian.Uint32(hdr[16:20])
	appLen := binary.LittleEndian.Uint32(hdr[20:24])
	if appLen > 1<<16 {
		return 0, m, 0, fmt.Errorf("trace: implausible app name length %d", appLen)
	}
	// Fast path: the name almost always fits the reader's buffer, so Peek +
	// Discard reads it in place — one string allocation instead of a scratch
	// slice plus the string. The ReadFull fallback covers callers that hand
	// in an undersized bufio.Reader.
	if b, perr := br.Peek(int(appLen)); perr == nil {
		*sum = crc32.Update(*sum, crc32.IEEETable, b)
		m.App = string(b)
		br.Discard(int(appLen))
	} else {
		app := make([]byte, appLen)
		if _, err := io.ReadFull(br, app); err != nil {
			return 0, m, 0, fmt.Errorf("trace: short app name: %w", err)
		}
		*sum = crc32.Update(*sum, crc32.IEEETable, app)
		m.App = string(app)
	}
	var cnt [8]byte
	if _, err := io.ReadFull(br, cnt[:]); err != nil {
		return 0, m, 0, fmt.Errorf("trace: short count: %w", err)
	}
	*sum = crc32.Update(*sum, crc32.IEEETable, cnt[:])
	count = binary.LittleEndian.Uint64(cnt[:])
	if count > maxEventCount {
		return 0, m, 0, fmt.Errorf("trace: implausible event count %d", count)
	}
	return version, m, count, nil
}

// readChunkV3 reads and CRC-verifies one version-3 chunk frame at event
// offset read (of count total), reusing *buf for the payload. It returns the
// verified payload (aliasing *buf) and the declared event count, so the
// caller decodes only bytes whose checksum already matched.
func readChunkV3(br *bufio.Reader, sum *uint32, buf *[]byte, read, count uint64) ([]byte, int, error) {
	// The chunk header and trailing CRC are read through slices of the
	// reusable payload buffer rather than stack arrays: a stack array
	// passed to io.ReadFull escapes through the io.Reader interface and
	// would cost two heap allocations per chunk on the streaming path.
	if cap(*buf) < chunkHdrSize {
		// Pre-size for a typical full chunk (4096 events at the ~7-16
		// bytes/event the v3 encoding averages), so most traces never regrow
		// the buffer: one payload allocation per scan instead of a geometric
		// ladder starting from a small seed.
		*buf = make([]byte, 0, 1<<16)
	}
	hdr := (*buf)[:chunkHdrSize]
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, 0, fmt.Errorf("trace: short chunk header at event %d: %w", read, err)
	}
	*sum = crc32Append(*sum, hdr)
	nEvents := binary.LittleEndian.Uint32(hdr[0:4])
	nBytes := binary.LittleEndian.Uint32(hdr[4:8])
	if nEvents == 0 || nEvents > chunkEvents || uint64(nEvents) > count-read {
		return nil, 0, fmt.Errorf("trace: chunk claims %d events with %d remaining", nEvents, count-read)
	}
	if nBytes < 2*nEvents || nBytes > nEvents*maxEventEnc {
		return nil, 0, fmt.Errorf("trace: chunk of %d events claims implausible size %d", nEvents, nBytes)
	}
	if uint32(cap(*buf)) < nBytes+4 {
		// Grow geometrically so a stream of slightly-growing chunks costs
		// O(log) allocations, not one per chunk. +4 leaves room to read
		// the chunk CRC behind the payload.
		newCap := 2 * cap(*buf)
		if uint32(newCap) < nBytes+4 {
			newCap = int(nBytes) + 4
		}
		*buf = make([]byte, 0, newCap)
	}
	payload := (*buf)[:nBytes]
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, 0, fmt.Errorf("trace: short chunk payload at event %d: %w", read, err)
	}
	*sum = crc32Append(*sum, payload)
	cb := (*buf)[nBytes : nBytes+4]
	if _, err := io.ReadFull(br, cb); err != nil {
		return nil, 0, fmt.Errorf("trace: short chunk CRC at event %d: %w", read, err)
	}
	*sum = crc32Append(*sum, cb)
	want := binary.LittleEndian.Uint32(cb)
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, 0, fmt.Errorf("trace: chunk CRC mismatch at event %d: computed %08x, header says %08x", read, got, want)
	}
	return payload, int(nEvents), nil
}

// readFooter reads and checks the "DSCR"+crc32 trailer of versions ≥ 2
// against the running whole-file checksum.
func readFooter(br *bufio.Reader, sum uint32) error {
	var foot [footerSize]byte
	if _, err := io.ReadFull(br, foot[:]); err != nil {
		return fmt.Errorf("trace: short CRC footer: %w", err)
	}
	if [4]byte(foot[0:4]) != footerMagic {
		return fmt.Errorf("trace: bad CRC footer magic %q", foot[0:4])
	}
	want := binary.LittleEndian.Uint32(foot[4:8])
	if got := sum; got != want {
		return fmt.Errorf("trace: CRC mismatch: computed %08x, footer says %08x (corrupted or torn file)", got, want)
	}
	return nil
}

// inputSize reports the byte size of the reader's underlying input when it
// is knowable without consuming it: a regular file (anything with a Stat
// method, e.g. *os.File) or an in-memory reader with a Len method
// (bytes.Reader, strings.Reader). ReadTrace uses it to bound the Events
// preallocation against what the input could physically contain.
func inputSize(r io.Reader) (int64, bool) {
	switch v := r.(type) {
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size(), true
		}
	case interface{ Len() int }:
		return int64(v.Len()), true
	}
	return 0, false
}

// eventCap converts the header's declared event count into a safe Events
// preallocation. When the input size is known, the count is trusted only up
// to the number of events the remaining bytes could minimally encode (2
// bytes each for version 3, a 40-byte record for the flat formats), so a
// corrupted header claiming 2^34 events cannot allocate hundreds of
// gigabytes before the short read is noticed. When the size is unknown
// (a pipe, a network stream), the preallocation falls back to one decode
// batch and the slice grows as data actually arrives.
func eventCap(count uint64, version uint32, size int64, sized bool) int {
	minPer, fallback := uint64(eventSize), uint64(recBatch)
	if version == formatVersion {
		minPer, fallback = 2, chunkEvents
	}
	if sized {
		if maxEv := uint64(size) / minPer; count > maxEv {
			count = maxEv
		}
		return int(count)
	}
	if count > fallback {
		count = fallback
	}
	return int(count)
}

// growEvents extends ev by n zeroed slots, doubling the backing array when
// it must grow (the unsized-input fallback path; sized inputs preallocate
// exactly once).
func growEvents(ev []Event, n int) []Event {
	need := len(ev) + n
	if cap(ev) >= need {
		return ev[:need]
	}
	newCap := 2 * cap(ev)
	if newCap < need {
		newCap = need
	}
	out := make([]Event, need, newCap)
	copy(out, ev)
	return out
}

// ReadTrace deserializes a trace written by WriteTo (or by an older
// flat-record writer) and validates it. It accepts the current chunked
// format (version 3, with a per-chunk CRC and the whole-file footer), the
// flat-record version 2 (footer only), and the legacy footerless version 1. Any checksum that
// does not match the payload — truncation, bit flips, torn writes — is
// rejected instead of replayed as garbage.
func ReadTrace(r io.Reader) (*Trace, error) {
	size, sized := inputSize(r)
	br := bufio.NewReaderSize(r, 1<<16)
	var sum uint32
	version, meta, count, err := readHeader(br, &sum)
	if err != nil {
		return nil, err
	}
	t := &Trace{App: meta.App, CPU: meta.CPU, NumCPUs: meta.NumCPUs, MissPenalty: meta.MissPenalty}
	cap0 := eventCap(count, version, size, sized)
	if version == formatVersion {
		err = readEventsV3(br, &sum, t, count, cap0)
	} else {
		err = readEventsFlat(br, &sum, t, count, cap0)
	}
	if err != nil {
		return nil, err
	}
	if version >= v2Version {
		if err := readFooter(br, sum); err != nil {
			return nil, err
		}
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("trace: deserialized trace invalid: %w", err)
	}
	return t, nil
}

// crc32Append folds b into the running whole-file CRC.
func crc32Append(sum uint32, b []byte) uint32 {
	return crc32.Update(sum, crc32.IEEETable, b)
}

// errShortEvent and errBrokenLink are shared by ReadTrace/Validate and the
// streaming Cursor so both readers report identical failures.
func errShortEvent(base uint64, err error) error {
	return fmt.Errorf("trace: short event %d: %w", base, err)
}

func errBrokenLink(app string, i uint64, nextPC, pc int32) error {
	return fmt.Errorf("trace %s[%d]: NextPC %d does not link to following PC %d", app, i, nextPC, pc)
}

// readEventsFlat decodes the 40-byte records of versions 1 and 2.
func readEventsFlat(br *bufio.Reader, sum *uint32, t *Trace, count uint64, cap0 int) error {
	t.Events = make([]Event, 0, cap0)
	buf := make([]byte, recBatch*eventSize)
	for base := uint64(0); base < count; base += recBatch {
		nrec := count - base
		if nrec > recBatch {
			nrec = recBatch
		}
		if _, err := io.ReadFull(br, buf[:nrec*eventSize]); err != nil {
			return errShortEvent(base, err)
		}
		*sum = crc32.Update(*sum, crc32.IEEETable, buf[:nrec*eventSize])
		n := len(t.Events)
		t.Events = growEvents(t.Events, int(nrec))
		if err := decodeFlatBatch(buf[:nrec*eventSize], t.Events[n:], base); err != nil {
			return err
		}
	}
	return nil
}

// decodeFlatBatch decodes len(dst) consecutive flat records from buf into
// dst; base is the absolute index of dst[0], used only in error messages.
func decodeFlatBatch(buf []byte, dst []Event, base uint64) error {
	for i := range dst {
		rec := buf[i*eventSize:][:eventSize]
		e := &dst[i]
		e.PC = int32(binary.LittleEndian.Uint32(rec[0:4]))
		e.NextPC = int32(binary.LittleEndian.Uint32(rec[4:8]))
		e.Instr.Op = isa.Op(rec[8])
		if !e.Instr.Op.Valid() {
			return fmt.Errorf("trace: event %d has invalid opcode %d", base+uint64(i), rec[8])
		}
		e.Instr.Dst = rec[9]
		e.Instr.Src1 = rec[10]
		e.Instr.Src2 = rec[11]
		e.Miss = rec[12]&flagMiss != 0
		e.Taken = rec[12]&flagTaken != 0
		e.Instr.Imm = int64(binary.LittleEndian.Uint64(rec[16:24]))
		e.Addr = binary.LittleEndian.Uint64(rec[24:32])
		e.Latency = binary.LittleEndian.Uint32(rec[32:36])
		e.Wait = binary.LittleEndian.Uint32(rec[36:40])
	}
	return nil
}

// readEventsV3 decodes the chunked varint/delta stream of version 3. Each
// chunk's CRC is verified before its payload is decoded, so a corrupted
// chunk is reported as a checksum failure, not as whatever garbage the
// varint decoder would have made of it.
func readEventsV3(br *bufio.Reader, sum *uint32, t *Trace, count uint64, cap0 int) error {
	t.Events = make([]Event, 0, cap0)
	var buf []byte
	for read := uint64(0); read < count; {
		payload, nEvents, err := readChunkV3(br, sum, &buf, read, count)
		if err != nil {
			return err
		}
		n := len(t.Events)
		t.Events = growEvents(t.Events, nEvents)
		if err := decodeChunkV3(payload, t.Events[n:]); err != nil {
			t.Events = t.Events[:n]
			return fmt.Errorf("trace: chunk at event %d: %w", read, err)
		}
		read += uint64(nEvents)
	}
	return nil
}

// decodeChunkV3 decodes one chunk payload into dst, which must have exactly
// the chunk's declared event count. The payload must be consumed exactly.
// Delta state (predicted PC, previous address) starts fresh: it resets at
// every chunk boundary by design.
func decodeChunkV3(buf []byte, dst []Event) error {
	pos := 0
	nEvents := len(dst)
	var predPC int32
	var prevAddr uint64
	for i := 0; i < nEvents; i++ {
		if pos+2 > len(buf) {
			return fmt.Errorf("payload exhausted at event %d of %d", i, nEvents)
		}
		flags, op := buf[pos], buf[pos+1]
		pos += 2
		e := &dst[i]
		*e = Event{}
		e.Instr.Op = isa.Op(op)
		if !e.Instr.Op.Valid() {
			return fmt.Errorf("event %d has invalid opcode %d", i, op)
		}
		e.Miss = flags&f3Miss != 0
		e.Taken = flags&f3Taken != 0
		pc := int64(predPC)
		if flags&f3PCJump != 0 {
			d, ok := takeVarint(buf, &pos)
			if !ok {
				return errBadVarint(pos)
			}
			pc += d
		}
		dNext, ok := takeVarint(buf, &pos)
		if !ok {
			return errBadVarint(pos)
		}
		next := pc + 1 + dNext
		if pc < -1<<31 || pc > 1<<31-1 || next < -1<<31 || next > 1<<31-1 {
			return fmt.Errorf("event %d PC delta out of range", i)
		}
		e.PC = int32(pc)
		e.NextPC = int32(next)
		if flags&f3Regs != 0 {
			if pos+3 > len(buf) {
				return fmt.Errorf("payload exhausted in event %d registers", i)
			}
			e.Instr.Dst, e.Instr.Src1, e.Instr.Src2 = buf[pos], buf[pos+1], buf[pos+2]
			pos += 3
		}
		if flags&f3Imm != 0 {
			if e.Instr.Imm, ok = takeVarint(buf, &pos); !ok {
				return errBadVarint(pos)
			}
		}
		if flags&f3Addr != 0 {
			d, ok := takeVarint(buf, &pos)
			if !ok {
				return errBadVarint(pos)
			}
			prevAddr += uint64(d)
			e.Addr = prevAddr
		}
		if flags&f3Latency != 0 {
			v, ok := takeUvarint(buf, &pos)
			if !ok {
				return errBadVarint(pos)
			}
			if v > 1<<32-1 {
				return fmt.Errorf("event %d latency %d overflows uint32", i, v)
			}
			e.Latency = uint32(v)
		}
		if flags&f3Wait != 0 {
			v, ok := takeUvarint(buf, &pos)
			if !ok {
				return errBadVarint(pos)
			}
			if v > 1<<32-1 {
				return fmt.Errorf("event %d wait %d overflows uint32", i, v)
			}
			e.Wait = uint32(v)
		}
		predPC = e.NextPC
	}
	if pos != len(buf) {
		return fmt.Errorf("chunk has %d undecoded trailing bytes", len(buf)-pos)
	}
	return nil
}

// takeVarint and takeUvarint decode at *pos and advance it. They are plain
// functions (not closures) so a chunk decode allocates nothing.
func takeVarint(buf []byte, pos *int) (int64, bool) {
	v, n := binary.Varint(buf[*pos:])
	if n <= 0 {
		return 0, false
	}
	*pos += n
	return v, true
}

func takeUvarint(buf []byte, pos *int) (uint64, bool) {
	v, n := binary.Uvarint(buf[*pos:])
	if n <= 0 {
		return 0, false
	}
	*pos += n
	return v, true
}

func errBadVarint(pos int) error {
	return fmt.Errorf("truncated or oversized varint at offset %d", pos)
}
