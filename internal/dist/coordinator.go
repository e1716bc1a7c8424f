package dist

// The coordinator: the exp.Replay hook of a distributed sweep plus the HTTP
// surface workers talk to. exp's sweep loop generates the traces, consults
// the result cache, keeps the job board and retries failed attempts; the
// hook publishes each application's trace to the content-addressed trace
// cache and leases one attempt at a time to the worker fleet. Everything
// HTTP-facing sits behind the admission gate except results — rejecting
// completed work only to recompute it would be self-inflicted load.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"dynsched/internal/cpu"
	"dynsched/internal/exp"
	"dynsched/internal/faultinject"
)

// Defaults for Config's zero values.
const (
	DefaultLease     = 10 * time.Second
	DefaultQueueMax  = 1024
	DefaultMaxActive = 64
)

// Config parameterizes a Coordinator. The retry budget, the result cache
// and the job board are the sweep's (exp.Options), not the coordinator's.
type Config struct {
	// Lease is how long a claimed cell stays assigned without a heartbeat
	// before the attempt fails as lease-lost. Zero means DefaultLease.
	Lease time.Duration
	// QueueMax bounds the admission queue; past it requests get 429. Zero
	// means DefaultQueueMax.
	QueueMax int
	// MaxActive bounds concurrently served requests. Zero means
	// DefaultMaxActive.
	MaxActive int
	// Faults is the test-only injector; the coordinator carries the
	// "dist.trace.serve" site (corrupt a trace transfer).
	Faults *faultinject.Injector
}

// Coordinator owns the trace cache, the lease queue, and the HTTP surface
// of one distributed sweep.
type Coordinator struct {
	cfg  Config
	q    *queue
	gate *gate

	mu        sync.Mutex
	traces    map[string][]byte // content address → serialized v3 trace
	published map[*exp.AppRun]*publication
}

// publication is one application's trace on the trace cache, serialized
// by the first of its cells to need it.
type publication struct {
	once sync.Once
	addr string
	err  error
}

// New creates a coordinator with cfg's zero values defaulted.
func New(cfg Config) *Coordinator {
	if cfg.QueueMax <= 0 {
		cfg.QueueMax = DefaultQueueMax
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = DefaultMaxActive
	}
	return &Coordinator{
		cfg:       cfg,
		q:         newQueue(cfg.Lease, time.Now),
		gate:      newGate(cfg.MaxActive, cfg.QueueMax),
		traces:    make(map[string][]byte),
		published: make(map[*exp.AppRun]*publication),
	}
}

// Replay is the exp.Replay hook of a distributed sweep (pass it to
// exp.Experiment.Sweep): it publishes run's trace once per application,
// leases one attempt at the cell to a worker, and returns the attempt's
// outcome — the checksum-verified result, the worker's error (permanent
// when the worker reports it so), or a lease-lost error.
func (co *Coordinator) Replay(ctx context.Context, run *exp.AppRun, spec exp.CellSpec, site string, index int) (cpu.Breakdown, uint64, error) {
	addr, err := co.publish(run)
	if err != nil {
		return cpu.Breakdown{}, 0, err
	}
	j := co.q.add(jobAssignment{ID: index, App: run.App, Label: site, Spec: spec, TraceFNV: addr})
	return co.q.await(ctx, j)
}

// publish serializes run's trace into the trace cache on first use and
// returns its content address.
func (co *Coordinator) publish(run *exp.AppRun) (string, error) {
	co.mu.Lock()
	p := co.published[run]
	if p == nil {
		p = new(publication)
		co.published[run] = p
	}
	co.mu.Unlock()
	p.once.Do(func() {
		var buf bytes.Buffer
		if _, err := run.TraceView().WriteTo(&buf); err != nil {
			p.err = permanentError{fmt.Errorf("dist: serialize %s trace: %w", run.App, err)}
			return
		}
		p.addr = traceAddr(buf.Bytes())
		co.mu.Lock()
		co.traces[p.addr] = buf.Bytes()
		co.mu.Unlock()
	})
	return p.addr, p.err
}

// Handler returns the coordinator's HTTP surface.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(pathClaim, co.admitted(co.handleClaim))
	mux.HandleFunc(pathHeartbeat, co.admitted(co.handleHeartbeat))
	mux.HandleFunc(pathTraces, co.admitted(co.handleTrace))
	// Results bypass admission: never turn away finished work.
	mux.HandleFunc(pathResult, co.handleResult)
	mux.HandleFunc(pathState, co.handleState)
	return mux
}

// admitted wraps h with the fair admission gate, keyed by worker id (falling
// back to the peer host), answering 429 + Retry-After past the high-water
// mark.
func (co *Coordinator) admitted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		client := r.Header.Get(workerHeader)
		if client == "" {
			if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
				client = host
			} else {
				client = r.RemoteAddr
			}
		}
		if err := co.gate.acquire(r.Context(), client); err != nil {
			if errors.Is(err, errSaturated) {
				w.Header().Set("Retry-After", "1")
				http.Error(w, "coordinator saturated", http.StatusTooManyRequests)
				return
			}
			// Canceled while queued; the client is gone.
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		defer co.gate.release()
		h(w, r)
	}
}

func (co *Coordinator) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req claimRequest
	if !decodePost(w, r, &req) {
		return
	}
	writeJSON(w, co.q.claim(r.Context(), req.Worker))
}

func (co *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req resultRequest
	if !decodePost(w, r, &req) {
		return
	}
	found, ok := co.q.result(req)
	if !found {
		http.Error(w, "unknown job id", http.StatusNotFound)
		return
	}
	if !ok {
		http.Error(w, "result checksum mismatch", http.StatusConflict)
		return
	}
	writeJSON(w, okResponse{OK: true})
}

func (co *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decodePost(w, r, &req) {
		return
	}
	co.q.heartbeat(req.Worker, req.IDs)
	writeJSON(w, okResponse{OK: true})
}

func (co *Coordinator) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	addr := strings.TrimPrefix(r.URL.Path, pathTraces)
	co.mu.Lock()
	data := co.traces[addr]
	co.mu.Unlock()
	if data == nil {
		http.Error(w, "unknown trace", http.StatusNotFound)
		return
	}
	if err := co.cfg.Faults.Fire("dist.trace.serve"); err != nil {
		// Simulated transfer corruption: serve a copy with one bit flipped.
		// The worker's checksum verification must catch it and re-fetch.
		bad := append([]byte(nil), data...)
		faultinject.CorruptByte("dist.trace.serve", bad)
		data = bad
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

func (co *Coordinator) handleState(w http.ResponseWriter, r *http.Request) {
	queued, leased, done, failed := co.q.counts()
	active, waiting := co.gate.status()
	writeJSON(w, map[string]int{
		"queued": queued, "leased": leased, "done": done, "failed": failed,
		"admitted": active, "admission_queued": waiting,
	})
}

func decodePost(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// Server is a running coordinator endpoint.
type Server struct {
	Addr string
	srv  *http.Server
	q    *queue
}

// StartServer serves co on addr (host:port, port 0 for ephemeral) in the
// background.
func StartServer(addr string, co *Coordinator) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: co.Handler()}
	go srv.Serve(ln)
	return &Server{Addr: ln.Addr().String(), srv: srv, q: co.q}, nil
}

// Shutdown ends the sweep and stops the server gracefully. Until ctx ends
// it first keeps serving, so that every live worker's next claim answers
// done and the worker exits cleanly instead of finding the port closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.q.finish()
	for !s.q.drained() && ctx.Err() == nil {
		time.Sleep(5 * time.Millisecond)
	}
	return s.srv.Shutdown(ctx)
}

// Close ends the sweep and stops the server immediately.
func (s *Server) Close() error {
	s.q.finish()
	return s.srv.Close()
}
