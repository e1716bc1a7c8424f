package dist

// The coordinator's lease queue. Each entry is one attempt at one cell,
// added by the coordinator's Replay hook; workers claim entries FIFO, and a
// claim is a lease, not a handoff: the worker renews it with heartbeats, and
// a lease that lapses resolves the attempt with a lease-lost error. The
// queue keeps no retry budget, backoff, result cache or job board — exp's
// sweep loop owns all of those and retries a cell by calling the hook
// again. A replay is a pure function of (trace, spec), so any checksum-
// verified answer for a cell is the answer: a late result from a worker
// whose lease moved on still resolves the cell's current attempt, and a
// report for an attempt already resolved is acknowledged and discarded.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dynsched/internal/cpu"
)

type jobState uint8

const (
	stateQueued jobState = iota
	stateLeased
	stateResolved
)

// qjob is one attempt at one cell.
type qjob struct {
	job    jobAssignment
	state  jobState
	worker string
	expiry time.Time // lease deadline while leased

	// done is closed once the attempt resolves; the outcome fields are
	// written before, under the queue lock.
	done         chan struct{}
	breakdown    cpu.Breakdown
	instructions uint64
	err          error
}

type queue struct {
	mu   sync.Mutex
	jobs map[int]*qjob // each cell's latest attempt, by cell index
	// fifo holds attempts in arrival order; entries no longer queued are
	// dropped as claims reach them.
	fifo []*qjob
	// wake is closed and replaced whenever an attempt is added or the sweep
	// finishes, releasing claims that wait for either.
	wake     chan struct{}
	finished bool
	// active maps each worker to its latest claim or heartbeat, until a
	// claim tells it the sweep is done; see drained.
	active map[string]time.Time

	lease     time.Duration
	claimWait time.Duration // how long a claim waits for work before answering wait
	poll      time.Duration // how often a waiting attempt checks its lease
	now       func() time.Time
}

func newQueue(lease time.Duration, now func() time.Time) *queue {
	if lease <= 0 {
		lease = DefaultLease
	}
	poll := min(max(lease/4, 5*time.Millisecond), 100*time.Millisecond)
	return &queue{
		jobs: make(map[int]*qjob), wake: make(chan struct{}), active: make(map[string]time.Time),
		lease: lease, claimWait: min(lease/4, time.Second), poll: poll, now: now,
	}
}

// broadcastLocked wakes every waiting claim. Caller holds q.mu.
func (q *queue) broadcastLocked() {
	close(q.wake)
	q.wake = make(chan struct{})
}

// add queues one attempt at cell job.ID; it becomes the cell's current
// attempt.
func (q *queue) add(job jobAssignment) *qjob {
	job.LeaseMillis = q.lease.Milliseconds()
	j := &qjob{job: job, done: make(chan struct{})}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.jobs[job.ID] = j
	q.fifo = append(q.fifo, j)
	q.broadcastLocked()
	return j
}

// finish ends the sweep: claims answer done from now on.
func (q *queue) finish() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.finished {
		q.finished = true
		q.broadcastLocked()
	}
}

// claim leases the oldest queued attempt to worker. With nothing queued it
// waits up to claimWait for an attempt or the end of the sweep, so an idle
// worker learns of both at once; it then answers wait, or done once the
// sweep has finished.
func (q *queue) claim(ctx context.Context, worker string) *claimResponse {
	timeout := time.NewTimer(q.claimWait)
	defer timeout.Stop()
	for {
		q.mu.Lock()
		q.active[worker] = q.now()
		for len(q.fifo) > 0 {
			j := q.fifo[0]
			q.fifo = q.fifo[1:]
			if j.state != stateQueued {
				continue // resolved before any worker claimed it
			}
			j.state, j.worker, j.expiry = stateLeased, worker, q.now().Add(q.lease)
			q.mu.Unlock()
			job := j.job
			return &claimResponse{Job: &job}
		}
		if q.finished {
			delete(q.active, worker)
			q.mu.Unlock()
			return &claimResponse{Done: true}
		}
		wake := q.wake
		q.mu.Unlock()
		select {
		case <-wake:
		case <-timeout.C:
			return &claimResponse{Wait: true}
		case <-ctx.Done():
			return &claimResponse{Wait: true}
		}
	}
}

// drained reports whether every worker heard from within the last lease
// has been told the sweep is done. Workers silent for longer have crashed
// or left, and nobody waits for them.
func (q *queue) drained() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	for _, at := range q.active {
		if now.Sub(at) < q.lease {
			return false
		}
	}
	return true
}

// resolveLocked lands j's outcome and releases its waiter. Caller holds
// q.mu and has checked that j is unresolved.
func (q *queue) resolveLocked(j *qjob, b cpu.Breakdown, instructions uint64, err error) {
	j.state = stateResolved
	j.breakdown, j.instructions, j.err = b, instructions, err
	close(j.done)
}

// result lands one worker report. ok=false rejects a checksum mismatch
// (the worker re-sends); found=false is an unknown cell. A success resolves
// the cell's current attempt whichever worker holds it; a failure counts
// only from the worker holding the lease.
func (q *queue) result(r resultRequest) (found, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j := q.jobs[r.ID]
	if j == nil {
		return false, false
	}
	switch {
	case j.state == stateResolved:
		// a duplicate or late report: nothing left to decide
	case r.Error == "":
		if resultCheck(r.ID, r.Breakdown, r.Instructions) != r.Check {
			return true, false
		}
		q.resolveLocked(j, r.Breakdown, r.Instructions, nil)
	case j.state == stateLeased && j.worker == r.Worker:
		err := errors.New(r.Error)
		if r.Permanent {
			err = permanentError{err}
		}
		q.resolveLocked(j, cpu.Breakdown{}, 0, err)
	}
	return true, true
}

// permanentError carries a worker's "do not retry" verdict (exp.IsPermanent
// on the worker side) back into the sweep's retry policy.
type permanentError struct{ error }

func (permanentError) Permanent() bool { return true }

// heartbeat renews worker's leases; ids the worker no longer holds (expired
// and reassigned) are ignored, which is how a resurrected worker learns
// nothing it does matters anymore.
func (q *queue) heartbeat(worker string, ids []int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	q.active[worker] = now
	for _, id := range ids {
		if j := q.jobs[id]; j != nil && j.state == stateLeased && j.worker == worker {
			j.expiry = now.Add(q.lease)
		}
	}
}

// expire resolves j with a lease-lost error once its lease has lapsed: the
// worker was SIGKILLed, wedged, or partitioned mid-replay.
func (q *queue) expire(j *qjob) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j.state == stateLeased && !j.expiry.After(q.now()) {
		q.resolveLocked(j, cpu.Breakdown{}, 0, fmt.Errorf("dist: worker %q lost its lease", j.worker))
	}
}

// await blocks until attempt j resolves, expiring its lease when the worker
// holding it falls silent. Cancellation withdraws the attempt.
func (q *queue) await(ctx context.Context, j *qjob) (cpu.Breakdown, uint64, error) {
	tick := time.NewTicker(q.poll)
	defer tick.Stop()
	for {
		select {
		case <-j.done:
			return j.breakdown, j.instructions, j.err
		case <-tick.C:
			q.expire(j)
		case <-ctx.Done():
			q.mu.Lock()
			if j.state != stateResolved {
				q.resolveLocked(j, cpu.Breakdown{}, 0, ctx.Err())
			}
			q.mu.Unlock()
			return cpu.Breakdown{}, 0, ctx.Err()
		}
	}
}

// counts summarizes the cells' current attempts for /state.
func (q *queue) counts() (queued, leased, done, failed int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, j := range q.jobs {
		switch {
		case j.state == stateQueued:
			queued++
		case j.state == stateLeased:
			leased++
		case j.err == nil:
			done++
		default:
			failed++
		}
	}
	return queued, leased, done, failed
}
