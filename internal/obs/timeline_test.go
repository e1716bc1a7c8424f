package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// tlPoint builds a conserving cumulative snapshot: the six breakdown fields
// sum to cycle, with the stall cycles split between read and busy.
func tlPoint(cycle, instr, read uint64) TimelinePoint {
	return TimelinePoint{
		Cycle:        cycle,
		Instructions: instr,
		Busy:         cycle - read,
		Read:         read,
		WindowSum:    3 * cycle,
	}
}

// drive records boundary snapshots exactly as a simulator would — whenever
// the simulated time reaches Boundary() — up to total cycles, deriving the
// cumulative state from the generator fn.
func drive(tl *Timeline, total uint64, fn func(cycle uint64) TimelinePoint) {
	for t := uint64(0); t <= total; t++ {
		if t == tl.Boundary() {
			tl.Record(fn(t))
		}
	}
	tl.Finish(fn(total))
}

func TestTimelineBoundaryAlignment(t *testing.T) {
	tl := NewTimeline(4, 1<<20) // interval 16, effectively unbounded ring
	drive(tl, 100, func(c uint64) TimelinePoint { return tlPoint(c, c/2, c/4) })
	samples := tl.Samples()
	// 100 cycles at interval 16: boundaries 16..96, plus the partial tail.
	if len(samples) != 7 {
		t.Fatalf("got %d samples, want 7", len(samples))
	}
	for i, s := range samples[:6] {
		if s.Start != uint64(i)*16 || s.End != uint64(i+1)*16 {
			t.Errorf("sample %d spans [%d,%d), want [%d,%d)", i, s.Start, s.End, i*16, (i+1)*16)
		}
	}
	if tail := samples[6]; tail.Start != 96 || tail.End != 100 {
		t.Errorf("tail spans [%d,%d), want [96,100)", tail.Start, tail.End)
	}
	if got := tl.Interval(); got != 16 {
		t.Errorf("Interval() = %d, want 16", got)
	}
}

func TestTimelineConservation(t *testing.T) {
	tl := NewTimeline(3, 8)
	drive(tl, 1000, func(c uint64) TimelinePoint { return tlPoint(c, c/3, c/5) })
	for i, s := range tl.Samples() {
		sum := s.Busy + s.Sync + s.Read + s.Write + s.Branch + s.Other
		if uint64(sum) != s.End-s.Start {
			t.Errorf("sample %d: breakdown sums to %d over [%d,%d), want %d",
				i, sum, s.Start, s.End, s.End-s.Start)
		}
		if want := 3.0; s.AvgWindow != want {
			t.Errorf("sample %d: AvgWindow = %g, want %g", i, s.AvgWindow, want)
		}
	}
}

// TestTimelineDecimation pins the memory bound and the decimation-exactness
// property: a long run through a small ring produces exactly the series a
// coarser-interval sampler would have recorded directly.
func TestTimelineDecimation(t *testing.T) {
	gen := func(c uint64) TimelinePoint { return tlPoint(c, c/2, c/7) }
	const total = 4096
	small := NewTimeline(2, 8) // interval 4, ring of 8 → must decimate
	drive(small, total, gen)
	if n := len(small.Samples()); n >= 9 {
		t.Fatalf("ring of 8 holds %d samples after a long run", n)
	}
	iv := small.Interval()
	if iv <= 4 || iv&(iv-1) != 0 {
		t.Fatalf("interval %d after decimation: want a larger power of two", iv)
	}
	// A sampler born at the final interval records the identical series.
	shift := uint(0)
	for 1<<shift < iv {
		shift++
	}
	coarse := NewTimeline(shift, 1<<20)
	drive(coarse, total, gen)
	if got, want := small.Samples(), coarse.Samples(); !reflect.DeepEqual(got, want) {
		t.Errorf("decimated series differs from native coarse series:\n got  %+v\n want %+v", got, want)
	}
	// The newest boundary always survives decimation (max is even, so the
	// last index is odd when the ring fills).
	last := small.Samples()
	if last[len(last)-1].End != total {
		t.Errorf("newest point lost: last sample ends at %d, want %d", last[len(last)-1].End, total)
	}
}

func TestTimelineFinishTail(t *testing.T) {
	// Run ending exactly on a boundary: no tail sample.
	tl := NewTimeline(4, 64)
	drive(tl, 32, func(c uint64) TimelinePoint { return tlPoint(c, c, 0) })
	if n := len(tl.Samples()); n != 2 {
		t.Errorf("on-boundary finish: %d samples, want 2", n)
	}
	// Run ending mid-interval: one partial tail.
	tl = NewTimeline(4, 64)
	drive(tl, 40, func(c uint64) TimelinePoint { return tlPoint(c, c, 0) })
	s := tl.Samples()
	if len(s) != 3 || s[2].Start != 32 || s[2].End != 40 {
		t.Errorf("mid-interval finish: samples %+v, want tail [32,40)", s)
	}
}

func TestTimelineCauseDeltas(t *testing.T) {
	tl := NewTimeline(2, 64)
	tl.CauseNames = []string{"busy", "read-lat"}
	gen := func(c uint64) TimelinePoint {
		p := tlPoint(c, c, c/2)
		p.Causes = []uint64{c / 2, c - c/2}
		return p
	}
	drive(tl, 8, gen)
	s := tl.Samples()
	if len(s) != 2 {
		t.Fatalf("got %d samples, want 2", len(s))
	}
	want := map[string]int64{"busy": 2, "read-lat": 2}
	if !reflect.DeepEqual(s[0].Causes, want) {
		t.Errorf("causes = %v, want %v", s[0].Causes, want)
	}
	// Unnamed indices fall back to cause<i>.
	tl2 := NewTimeline(2, 64)
	drive(tl2, 4, gen)
	if c := tl2.Samples()[0].Causes; c["cause1"] == 0 {
		t.Errorf("unnamed cause index missing: %v", c)
	}
}

func TestTimelineNilSafety(t *testing.T) {
	var tl *Timeline
	if b := tl.Boundary(); b != ^uint64(0) {
		t.Errorf("nil Boundary() = %d", b)
	}
	tl.Record(TimelinePoint{})
	tl.Finish(TimelinePoint{})
	tl.setSink(nil)
	if s := tl.Samples(); s != nil {
		t.Errorf("nil Samples() = %v", s)
	}
	if iv := tl.Interval(); iv != 0 {
		t.Errorf("nil Interval() = %d", iv)
	}

	var h *TimelineHub
	h.Register("x", NewTimeline(4, 8))
	h.Close()
	if snap := h.Snapshot(); snap == nil || len(snap) != 0 {
		t.Errorf("nil hub Snapshot() = %v, want empty non-nil", snap)
	}
	ch, cancel := h.Subscribe(4)
	cancel()
	if _, ok := <-ch; ok {
		t.Error("nil hub subscription channel not closed")
	}
}

func TestTimelineHubOrderedDelivery(t *testing.T) {
	h := NewTimelineHub()
	tl := NewTimeline(4, 64)
	h.Register("lu BASE", tl)
	ch, cancel := h.Subscribe(64)
	defer cancel()
	drive(tl, 100, func(c uint64) TimelinePoint { return tlPoint(c, c, 0) })
	h.Close()
	var seqs []uint64
	for ev := range ch {
		seqs = append(seqs, ev.Seq)
		if ev.Cell != "lu BASE" {
			t.Errorf("event cell = %q", ev.Cell)
		}
	}
	// 6 full boundaries + the Finish tail, strictly ordered from 1.
	if len(seqs) != 7 {
		t.Fatalf("delivered %d events, want 7", len(seqs))
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("event %d has seq %d: out of order", i, s)
		}
	}
	// Publishing after Close is dropped, and Close is idempotent.
	tl.Record(tlPoint(200, 200, 0))
	h.Close()
}

func TestTimelineHubSnapshotSorted(t *testing.T) {
	h := NewTimelineHub()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		tl := NewTimeline(4, 8)
		h.Register(name, tl)
		tl.Record(tlPoint(16, 8, 4))
	}
	snap := h.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d cells, want 3", len(snap))
	}
	for i, want := range []string{"alpha", "mid", "zeta"} {
		if snap[i].Cell != want {
			t.Errorf("snapshot[%d] = %q, want %q", i, snap[i].Cell, want)
		}
		if len(snap[i].Samples) != 1 || snap[i].Interval != 16 {
			t.Errorf("snapshot[%d]: %d samples at interval %d", i, len(snap[i].Samples), snap[i].Interval)
		}
	}
}

// TestServeTimelineConcurrentScrape hammers /timeline and /bottlenecks while
// a writer goroutine records into a registered timeline — the race detector
// proves a live scrape never tears a series mid-update.
func TestServeTimelineConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("critpath.lu.RC-DS64.cycles.read_latency").Set(10)
	hub := NewTimelineHub()
	srv := httptest.NewServer(NewServeMux(ServerState{Registry: reg, Timelines: hub, Version: "test"}))
	defer srv.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < 20; round++ {
			tl := NewTimeline(2, 8)
			hub.Register(fmt.Sprintf("cell%d", round%4), tl)
			drive(tl, 512, func(c uint64) TimelinePoint { return tlPoint(c, c/2, c/3) })
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				for _, path := range []string{"/timeline", "/bottlenecks"} {
					resp, err := http.Get(srv.URL + path)
					if err != nil {
						t.Errorf("GET %s: %v", path, err)
						return
					}
					if path == "/timeline" {
						var series []TimelineSeries
						if err := json.NewDecoder(resp.Body).Decode(&series); err != nil {
							t.Errorf("decode /timeline: %v", err)
						}
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("GET %s: status %d", path, resp.StatusCode)
					}
				}
			}
		}()
	}
	wg.Wait()
	<-done
}

// TestServeEventsSSE subscribes to the /events stream, records a series, and
// shuts the server down mid-stream: the client must see well-formed,
// strictly ordered frames for every delivered event, then a clean EOF —
// never a torn frame.
func TestServeEventsSSE(t *testing.T) {
	hub := NewTimelineHub()
	srv, err := StartServer("127.0.0.1:0", ServerState{Timelines: hub, Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-cache" {
		t.Errorf("Cache-Control = %q", cc)
	}

	tl := NewTimeline(4, 64)
	hub.Register("lu RC-DS64", tl)
	drive(tl, 160, func(c uint64) TimelinePoint { return tlPoint(c, c, c/4) })

	// Graceful shutdown closes the hub first, so the stream drains its
	// buffered events in order and the handler ends the response cleanly.
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	go srv.Shutdown(sctx)

	sc := bufio.NewScanner(resp.Body)
	var ids []uint64
	var id uint64
	var sawEvent, sawData bool
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			if _, err := fmt.Sscanf(line, "id: %d", &id); err != nil {
				t.Fatalf("bad id line %q: %v", line, err)
			}
		case line == "event: sample":
			sawEvent = true
		case strings.HasPrefix(line, "data: "):
			var ev TimelineEvent
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
				t.Fatalf("bad data line %q: %v", line, err)
			}
			if ev.Seq != id {
				t.Errorf("frame id %d carries event seq %d", id, ev.Seq)
			}
			sawData = true
		case line == "":
			if !sawEvent || !sawData {
				t.Fatalf("frame %d missing event/data lines", id)
			}
			ids = append(ids, id)
			sawEvent, sawData = false, false
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(ids) == 0 {
		t.Fatal("no events delivered before shutdown")
	}
	for i, got := range ids {
		if got != uint64(i+1) {
			t.Fatalf("frame %d has id %d: stream not ordered", i, got)
		}
	}
}

// flushHook is a ResponseWriter that runs onFlush at its first Flush — the
// moment an /events client can have read the response headers.
type flushHook struct {
	*httptest.ResponseRecorder
	onFlush func()
}

func (w *flushHook) Flush() {
	w.ResponseRecorder.Flush()
	if f := w.onFlush; f != nil {
		w.onFlush = nil
		f()
	}
}

// TestServeEventsSubscribedBeforeHeaders publishes samples the moment the
// /events headers are flushed, then closes the hub: the stream must carry
// them, so the handler has to subscribe before it sends the headers.
func TestServeEventsSubscribedBeforeHeaders(t *testing.T) {
	hub := NewTimelineHub()
	tl := NewTimeline(4, 64)
	hub.Register("lu RC-DS64", tl)
	w := &flushHook{ResponseRecorder: httptest.NewRecorder()}
	w.onFlush = func() {
		drive(tl, 40, func(c uint64) TimelinePoint { return tlPoint(c, c, c/4) })
		hub.Close()
	}
	NewServeMux(ServerState{Timelines: hub, Version: "test"}).ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/events", nil))
	if ct := w.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if n := strings.Count(w.Body.String(), "event: sample\n"); n != len(tl.Samples()) || n == 0 {
		t.Fatalf("stream carries %d of the %d samples published right after the headers", n, len(tl.Samples()))
	}
}

func TestServeReadOnlyMethods(t *testing.T) {
	srv := httptest.NewServer(NewServeMux(ServerState{Version: "test"}))
	defer srv.Close()
	for _, path := range []string{"/", "/metrics", "/metrics.json", "/bottlenecks",
		"/timeline", "/events", "/jobs", "/progress", "/healthz"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want 405", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
			t.Errorf("POST %s: Allow = %q, want GET", path, allow)
		}
	}
}

func TestServeCacheAndContentHeaders(t *testing.T) {
	srv := httptest.NewServer(NewServeMux(ServerState{Version: "test"}))
	defer srv.Close()
	wantJSON := []string{"/metrics.json", "/bottlenecks", "/timeline", "/jobs", "/progress", "/healthz"}
	for _, path := range wantJSON {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s: Content-Type = %q, want application/json", path, ct)
		}
		if cc := resp.Header.Get("Cache-Control"); cc != "no-cache" {
			t.Errorf("GET %s: Cache-Control = %q, want no-cache", path, cc)
		}
	}
	for _, path := range []string{"/", "/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if cc := resp.Header.Get("Cache-Control"); cc != "no-cache" {
			t.Errorf("GET %s: Cache-Control = %q, want no-cache", path, cc)
		}
	}
}
