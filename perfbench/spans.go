package main

// Span recording for the traced run. Spans are opened around the calls the
// benchmark makes into each layer, kept in memory, and written out at exit
// as Chrome trace-event JSON. Per-layer numbers are derived from them: a
// span's self time is its duration minus the time its children cover.

import (
	"encoding/json"
	"io"
	"runtime"
	"strings"
	"time"
)

// span is one recorded interval. Count is the work the call did, in the
// unit of its layer (instructions, events, bytes); Alloc and Objs are the
// bytes and objects allocated while it was open, children included.
type span struct {
	ID, Parent  int
	Run         string
	Name        string
	Start, End  time.Duration
	Count       uint64
	Alloc, Objs uint64
}

// recorder keeps spans, and counters of work done at the same call
// boundaries, in memory. A nil recorder records nothing, so the traced
// direct run goes untraced by passing nil.
type recorder struct {
	epoch  time.Time
	run    string
	spans  []span
	open   []int             // stack of indices into spans
	counts map[string]uint64 // by run id + "/" + counter name
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), counts: map[string]uint64{}}
}

// root starts a new run id and its top-level span, named after it; every
// span opened until it ends is its descendant.
func (r *recorder) root(run string) func() {
	if r == nil {
		return func() {}
	}
	r.run = run
	return r.begin(run)
}

// begin opens a span as a child of the innermost open span and returns the
// function that closes it.
func (r *recorder) begin(name string) func() {
	if r == nil {
		return func() {}
	}
	s := span{ID: len(r.spans) + 1, Run: r.run, Name: name}
	s.Alloc, s.Objs = allocated()
	if n := len(r.open); n > 0 {
		s.Parent = r.spans[r.open[n-1]].ID
	}
	r.open = append(r.open, len(r.spans))
	s.Start = time.Since(r.epoch)
	r.spans = append(r.spans, s)
	return func() { r.end() }
}

func (r *recorder) end() {
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	s := &r.spans[i]
	s.End = time.Since(r.epoch)
	b, o := allocated()
	s.Alloc, s.Objs = b-s.Alloc, o-s.Objs
}

// count adds n units of work to the innermost open span.
func (r *recorder) count(n uint64) {
	if r == nil || len(r.open) == 0 {
		return
	}
	r.spans[r.open[len(r.open)-1]].Count += n
}

// add adds n to the current run's counter name.
func (r *recorder) add(name string, n uint64) {
	if r == nil {
		return
	}
	r.counts[r.run+"/"+name] += n
}

// counter returns a run's counter.
func (r *recorder) counter(run, name string) uint64 { return r.counts[run+"/"+name] }

// layerStat is the aggregate of a set of spans: self time, work, self
// allocation and the number of spans.
type layerStat struct {
	Self        time.Duration
	Count       uint64
	Alloc, Objs uint64
	Ops         int
}

// stats aggregates the spans of one run id by name prefix ("cpu.ds" matches
// "cpu.ds" and "cpu.ds.x"; "cpu" matches every cpu span). Self time and
// self allocation subtract what direct children cover.
func (r *recorder) stats(run, prefix string) layerStat {
	if r == nil {
		return layerStat{}
	}
	// What each span's direct children cover.
	type cover struct {
		dur         time.Duration
		alloc, objs uint64
	}
	children := map[int]cover{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			c := children[s.Parent]
			c.dur += s.End - s.Start
			c.alloc += s.Alloc
			c.objs += s.Objs
			children[s.Parent] = c
		}
	}
	var st layerStat
	for _, s := range r.spans {
		if s.Run != run || !(s.Name == prefix || strings.HasPrefix(s.Name, prefix+".")) {
			continue
		}
		c := children[s.ID]
		st.Self += s.End - s.Start - c.dur
		st.Count += s.Count
		st.Alloc += s.Alloc - min(s.Alloc, c.alloc)
		st.Objs += s.Objs - min(s.Objs, c.objs)
		st.Ops++
	}
	return st
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  string         `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every span as Chrome trace-event JSON, one track per
// run id, loadable in chrome://tracing or Perfetto.
func (r *recorder) writeChrome(w io.Writer) error {
	evs := make([]chromeEvent, 0, len(r.spans))
	for _, s := range r.spans {
		cat, _, _ := strings.Cut(s.Name, ".")
		evs = append(evs, chromeEvent{
			Name: s.Name, Cat: cat, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Run,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "run": s.Run, "count": s.Count, "alloc_bytes": s.Alloc, "alloc_objects": s.Objs},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}

// allocated is the process's cumulative heap allocation in bytes and
// objects. ReadMemStats flushes the per-P caches, so the counts are exact
// at any span boundary; it stops the world briefly, which the few hundred
// spans of a run can afford.
func allocated() (bytes, objects uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}
