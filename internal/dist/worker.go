package dist

// The worker: a claim → fetch → replay → report loop built to be SIGKILL-
// safe at every point. Nothing a worker does is load-bearing until its
// result lands on the coordinator: a worker killed holding a lease just
// lets the lease expire, one killed mid-fetch or mid-replay changed no
// shared state, and a duplicate report after a reclaim is acknowledged and
// discarded because deterministic replay makes every copy identical. The
// worker needs no configuration from the coordinator beyond the job itself:
// a replay is a pure function of (trace, spec) — exp.Options only carries
// scheduling knobs that cannot change the numbers.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"time"

	"dynsched/internal/exp"
	"dynsched/internal/faultinject"
	"dynsched/internal/trace"
)

// WorkerConfig parameterizes a Worker.
type WorkerConfig struct {
	// ID names this worker to the coordinator; empty derives host-pid.
	ID string
	// Coordinator is the base URL, e.g. "http://127.0.0.1:8377".
	Coordinator string
	// Client overrides the HTTP client (tests shorten timeouts).
	Client *http.Client
	// Faults is the test-only injector; the worker carries the sites
	// "worker.claim", "worker.fetch", "worker.replay" and "worker.post".
	Faults *faultinject.Injector
}

// Worker runs the claim/replay/report loop against one coordinator.
type Worker struct {
	cfg  WorkerConfig
	base *url.URL

	mu     sync.Mutex
	traces map[string]*trace.Trace // content address → decoded trace

	hbIDs chan []int // current lease set for the heartbeat loop
}

// NewWorker validates cfg and returns a worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, errors.New("dist: worker needs a coordinator URL")
	}
	u, err := url.Parse(cfg.Coordinator)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("dist: bad coordinator URL %q (want http://host:port)", cfg.Coordinator)
	}
	if cfg.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		cfg.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return &Worker{
		cfg: cfg, base: u,
		traces: make(map[string]*trace.Trace),
		hbIDs:  make(chan []int, 1),
	}, nil
}

// ID returns the worker's identity as sent to the coordinator.
func (w *Worker) ID() string { return w.cfg.ID }

// Run claims and replays cells until the coordinator reports the sweep done
// or ctx cancels. It returns the number of cells it resolved. An injected
// fault at "worker.claim" or "worker.post" makes Run return early — the
// simulated crash the chaos test uses; a real crash (SIGKILL) is equivalent
// and equally safe.
func (w *Worker) Run(ctx context.Context) (int, error) {
	hbCtx, stopHB := context.WithCancel(ctx)
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() { defer hbWG.Done(); w.heartbeatLoop(hbCtx) }()
	// LIFO: cancel the heartbeat context first, then wait the loop out.
	defer hbWG.Wait()
	defer stopHB()

	resolved := 0
	claimFailures := 0
	for {
		if err := ctx.Err(); err != nil {
			return resolved, err
		}
		if err := w.cfg.Faults.Fire("worker.claim"); err != nil {
			return resolved, err // simulated crash before claiming
		}
		resp, err := w.claim(ctx)
		if err != nil {
			claimFailures++
			if claimFailures > 10 {
				return resolved, fmt.Errorf("dist: coordinator unreachable: %w", err)
			}
			if !sleepCtx(ctx, 200*time.Millisecond) {
				return resolved, ctx.Err()
			}
			continue
		}
		claimFailures = 0
		switch {
		case resp.Done:
			return resolved, nil
		case resp.Job == nil:
			// A claim already waited for work on the coordinator; come
			// back at once unless it asked for a pause.
			wait := time.Duration(resp.RetryAfterMillis) * time.Millisecond
			if wait > 0 && !sleepCtx(ctx, wait) {
				return resolved, ctx.Err()
			}
			continue
		}
		job := resp.Job
		w.setLeases([]int{job.ID})
		ok, err := w.runJob(ctx, job)
		w.setLeases(nil)
		if err != nil {
			return resolved, err // simulated crash mid-job
		}
		if ok {
			resolved++
		}
	}
}

// runJob fetches the job's trace, replays the cell, and reports the
// outcome. A non-nil error means the worker itself should stop (simulated
// crash); a replay failure is reported to the coordinator instead.
func (w *Worker) runJob(ctx context.Context, job *jobAssignment) (bool, error) {
	tr, err := w.getTrace(ctx, job.TraceFNV)
	if err != nil {
		// Could not obtain a verified trace; report a transient failure so
		// the sweep retries it under the cell's retry budget.
		return false, w.report(ctx, resultRequest{
			Worker: w.cfg.ID, ID: job.ID, Error: err.Error(),
		})
	}
	if err := w.cfg.Faults.Fire("worker.replay"); err != nil {
		return false, w.report(ctx, resultRequest{
			Worker: w.cfg.ID, ID: job.ID, Error: err.Error(),
		})
	}
	col, err := replaySpec(ctx, tr, job.Spec)
	if err != nil {
		return false, w.report(ctx, resultRequest{
			Worker: w.cfg.ID, ID: job.ID, Error: err.Error(),
			Permanent: exp.IsPermanent(err),
		})
	}
	req := resultRequest{
		Worker: w.cfg.ID, ID: job.ID,
		Breakdown: col.Breakdown, Instructions: col.Instructions,
		Check: resultCheck(job.ID, col.Breakdown, col.Instructions),
	}
	if err := w.cfg.Faults.Fire("worker.post"); err != nil {
		return false, err // simulated crash after replaying, before reporting
	}
	if err := w.report(ctx, req); err != nil {
		return false, err
	}
	return true, nil
}

// replaySpec runs one cell with the same panic containment the local
// scheduler gives cells: a panicking replay becomes a reported failure, not
// a dead worker.
func replaySpec(ctx context.Context, tr *trace.Trace, spec exp.CellSpec) (col exp.Column, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("dist: replay panicked: %v", r)
		}
	}()
	return exp.RunSpec(tr, spec, &exp.Options{Ctx: ctx})
}

// getTrace returns the decoded trace at addr, fetching and verifying it on
// first use. Verification is two layers: the FNV content address over the
// exact bytes received, then the v3 per-chunk CRCs and file checksum during
// decode. A fetch that fails either check is retried — corruption degrades
// to latency, never to a wrong answer.
func (w *Worker) getTrace(ctx context.Context, addr string) (*trace.Trace, error) {
	w.mu.Lock()
	tr := w.traces[addr]
	w.mu.Unlock()
	if tr != nil {
		return tr, nil
	}
	var lastErr error
	for attempt := 1; attempt <= 3; attempt++ {
		if err := w.cfg.Faults.Fire("worker.fetch"); err != nil {
			lastErr = err
			continue
		}
		data, err := w.fetch(ctx, addr)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				break
			}
			continue
		}
		if got := traceAddr(data); got != addr {
			lastErr = fmt.Errorf("trace %s arrived with content address %s", addr, got)
			continue
		}
		decoded, err := trace.ReadTrace(bytes.NewReader(data))
		if err != nil {
			lastErr = fmt.Errorf("trace %s failed checksum verification: %w", addr, err)
			continue
		}
		tr = decoded.Freeze()
		w.mu.Lock()
		w.traces[addr] = tr
		w.mu.Unlock()
		return tr, nil
	}
	return nil, fmt.Errorf("dist: fetch trace %s: %w", addr, lastErr)
}

func (w *Worker) fetch(ctx context.Context, addr string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.endpoint(pathTraces+addr), nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(workerHeader, w.cfg.ID)
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		sleepCtx(ctx, retryAfter(resp))
		return nil, errors.New("coordinator saturated")
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", addr, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// claim asks for one job, honoring 429 Retry-After.
func (w *Worker) claim(ctx context.Context) (*claimResponse, error) {
	var resp claimResponse
	status, err := w.postJSON(ctx, pathClaim, claimRequest{Worker: w.cfg.ID}, &resp)
	if err != nil {
		return nil, err
	}
	if status == http.StatusTooManyRequests {
		return &claimResponse{Wait: true, RetryAfterMillis: 1000}, nil
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("claim: status %d", status)
	}
	return &resp, nil
}

// report delivers one result, retrying transient transport errors and
// checksum rejections (409). A 404 means the job vanished (sweep torn
// down); the result is simply dropped. The returned error only reflects
// giving up on delivery, which the lease mechanism then covers.
func (w *Worker) report(ctx context.Context, r resultRequest) error {
	var lastErr error
	for attempt := 1; attempt <= 5; attempt++ {
		var ok okResponse
		status, err := w.postJSON(ctx, pathResult, r, &ok)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if !sleepCtx(ctx, time.Duration(attempt)*100*time.Millisecond) {
				return ctx.Err()
			}
			continue
		}
		switch status {
		case http.StatusOK, http.StatusNotFound:
			return nil
		case http.StatusConflict:
			// The transfer mangled the payload; recompute and re-send.
			r.Check = resultCheck(r.ID, r.Breakdown, r.Instructions)
			lastErr = errors.New("result rejected: checksum mismatch")
			continue
		default:
			lastErr = fmt.Errorf("result: status %d", status)
		}
	}
	return fmt.Errorf("dist: deliver result for cell %d: %w", r.ID, lastErr)
}

// heartbeatLoop renews the worker's current leases. It learns the lease set
// through setLeases and posts every interval; delivery failures are ignored
// (a missed heartbeat is exactly the failure leases exist to absorb).
func (w *Worker) heartbeatLoop(ctx context.Context) {
	interval := 500 * time.Millisecond
	var ids []int
	for {
		select {
		case <-ctx.Done():
			return
		case ids = <-w.hbIDs:
		case <-time.After(interval):
		}
		if len(ids) == 0 {
			continue
		}
		var ok okResponse
		w.postJSON(ctx, pathHeartbeat, heartbeatRequest{Worker: w.cfg.ID, IDs: ids}, &ok)
	}
}

func (w *Worker) setLeases(ids []int) {
	// Replace any stale pending update so the loop always sees the latest.
	select {
	case <-w.hbIDs:
	default:
	}
	w.hbIDs <- ids
}

func (w *Worker) postJSON(ctx context.Context, path string, body, out any) (int, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.endpoint(path), &buf)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(workerHeader, w.cfg.ID)
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return 0, err
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, nil
}

func (w *Worker) endpoint(path string) string {
	u := *w.base
	u.Path = path
	return u.String()
}

func retryAfter(resp *http.Response) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return time.Duration(n) * time.Second
		}
	}
	return time.Second
}

// sleepCtx sleeps for d or until ctx cancels; it reports whether the full
// sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}
