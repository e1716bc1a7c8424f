package dist

// Unit tests for the lease queue and the admission gate, on a fake clock:
// lease expiry and reassignment, FIFO claims that wait for work and learn
// of the sweep's end, checksum rejection, duplicate and late results, and
// fair bounded admission. The retry budget, backoff and result cache are
// the sweep loop's; sweep_test.go covers them under a coordinator.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"dynsched/internal/cpu"
	"dynsched/internal/exp"
)

// testQueue builds a queue with a one-second lease on a fake clock whose
// claims answer at once when nothing is queued.
func testQueue() (*queue, *time.Time) {
	now := time.Unix(1000, 0)
	q := newQueue(time.Second, func() time.Time { return now })
	q.claimWait = 0
	return q, &now
}

// addCell queues one attempt at cell id of an mp3d Figure 3 sweep.
func addCell(q *queue, id int) *qjob {
	spec := exp.Figure3Specs()[id]
	return q.add(jobAssignment{ID: id, App: "mp3d", Label: "mp3d " + spec.Label, Spec: spec, TraceFNV: "deadbeef"})
}

// resolved reports whether attempt j has an outcome.
func resolved(j *qjob) bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

func TestQueueLeaseExpiryReassigns(t *testing.T) {
	q, now := testQueue()
	j := addCell(q, 0)
	resp := q.claim(context.Background(), "w1")
	if resp.Job == nil || resp.Job.ID != 0 || resp.Job.LeaseMillis != 1000 {
		t.Fatalf("first claim: %+v", resp)
	}
	// Another worker sees nothing while the lease is live.
	if resp := q.claim(context.Background(), "w2"); resp.Job != nil || !resp.Wait {
		t.Fatalf("claim during live lease: %+v", resp)
	}
	// Heartbeats extend the lease past its original expiry.
	*now = now.Add(800 * time.Millisecond)
	q.heartbeat("w1", []int{0})
	*now = now.Add(800 * time.Millisecond) // 1.6s after claim, 0.8s after renewal
	if q.expire(j); resolved(j) {
		t.Fatal("heartbeat-renewed lease expired")
	}
	// Silence fails the attempt as lease-lost.
	*now = now.Add(2 * time.Second)
	if q.expire(j); !resolved(j) || j.err == nil || !strings.Contains(j.err.Error(), `"w1" lost its lease`) {
		t.Fatalf("silent lease: resolved=%v err=%v, want a lease-lost error", resolved(j), j.err)
	}
	// The sweep's retry queues the next attempt, and another worker gets it.
	j2 := addCell(q, 0)
	if resp := q.claim(context.Background(), "w2"); resp.Job == nil || resp.Job.ID != 0 {
		t.Fatalf("post-expiry claim: %+v", resp)
	}
	// The original worker's late heartbeat is ignored: the lease moved on.
	*now = now.Add(900 * time.Millisecond)
	q.heartbeat("w1", []int{0})
	*now = now.Add(100 * time.Millisecond)
	if q.expire(j2); !resolved(j2) {
		t.Fatal("stale heartbeat from the old worker extended the new lease")
	}
}

func TestQueueClaimsFIFO(t *testing.T) {
	q, _ := testQueue()
	for id := 0; id < 3; id++ {
		addCell(q, id)
	}
	for want := 0; want < 3; want++ {
		if resp := q.claim(context.Background(), "w1"); resp.Job == nil || resp.Job.ID != want {
			t.Fatalf("claim %d = %+v, want cell %d", want, resp, want)
		}
	}
}

// waitClaiming returns once worker's claim has checked the queue and is
// waiting: a claim records the worker and takes the wake channel in one
// critical section, so anything added after this returns wakes it.
func waitClaiming(q *queue, worker string) {
	for {
		q.mu.Lock()
		_, ok := q.active[worker]
		q.mu.Unlock()
		if ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func TestQueueClaimWaitsForWorkAndSweepEnd(t *testing.T) {
	q, _ := testQueue()
	q.claimWait = time.Minute
	claimed := make(chan *claimResponse)
	go func() { claimed <- q.claim(context.Background(), "w1") }()
	// An attempt added while the claim waits is handed to it.
	waitClaiming(q, "w1")
	addCell(q, 2)
	if resp := <-claimed; resp.Job == nil || resp.Job.ID != 2 {
		t.Fatalf("waiting claim = %+v, want cell 2", resp)
	}
	// So is the end of the sweep, and every later claim answers done.
	go func() { claimed <- q.claim(context.Background(), "w2") }()
	waitClaiming(q, "w2")
	q.finish()
	if resp := <-claimed; !resp.Done {
		t.Fatalf("waiting claim after finish = %+v, want done", resp)
	}
	if resp := q.claim(context.Background(), "w3"); !resp.Done {
		t.Fatalf("claim after finish = %+v, want done", resp)
	}
}

// Shutdown waits until every live worker has been told the sweep is done;
// a worker silent for a whole lease is not waited for.
func TestQueueDrainedOnceLiveWorkersAreToldDone(t *testing.T) {
	q, now := testQueue()
	q.claim(context.Background(), "w1")
	q.heartbeat("crashed", nil)
	q.finish()
	if q.drained() {
		t.Fatal("drained before any worker was told the sweep is done")
	}
	if resp := q.claim(context.Background(), "w1"); !resp.Done {
		t.Fatalf("claim after finish = %+v, want done", resp)
	}
	if q.drained() {
		t.Fatal("drained while a worker heard from within the lease was never told")
	}
	*now = now.Add(time.Second)
	if !q.drained() {
		t.Fatal("not drained once the silent worker's lease has passed")
	}
}

func TestQueueResultChecksumAndDuplicates(t *testing.T) {
	q, _ := testQueue()
	j := addCell(q, 0)
	q.claim(context.Background(), "w1")
	b := cpu.Breakdown{Busy: 100, Read: 50}
	// A mangled payload is rejected, leaving the cell leased.
	if _, ok := q.result(resultRequest{Worker: "w1", ID: 0, Breakdown: b, Instructions: 7, Check: "0000000000000000"}); ok || resolved(j) {
		t.Fatal("corrupted result accepted")
	}
	good := resultRequest{Worker: "w1", ID: 0, Breakdown: b, Instructions: 7, Check: resultCheck(0, b, 7)}
	if _, ok := q.result(good); !ok {
		t.Fatal("valid result rejected")
	}
	// A duplicate (reclaimed-then-reported-twice) is acknowledged, and the
	// first answer stands even if the duplicate differs.
	dup := good
	dup.Instructions = 999
	dup.Check = resultCheck(0, b, 999)
	if found, ok := q.result(dup); !found || !ok {
		t.Fatal("duplicate result must be acknowledged")
	}
	if !resolved(j) || j.err != nil || j.breakdown != b || j.instructions != 7 {
		t.Fatalf("outcome = %+v/%d/%v, want first result to stand", j.breakdown, j.instructions, j.err)
	}
	if found, _ := q.result(resultRequest{Worker: "w1", ID: 42}); found {
		t.Fatal("unknown job id must report not-found")
	}
}

func TestQueueLateReports(t *testing.T) {
	q, _ := testQueue()
	j := addCell(q, 0)
	q.claim(context.Background(), "w2")
	// A failure from a worker that does not hold the lease (its own lease
	// was lost earlier) is acknowledged but decides nothing.
	if found, ok := q.result(resultRequest{Worker: "w1", ID: 0, Error: "late crash"}); !found || !ok || resolved(j) {
		t.Fatalf("stale failure: found=%v ok=%v resolved=%v, want acknowledged and ignored", found, ok, resolved(j))
	}
	// Its verified result is the cell's answer, whoever computed it.
	b := cpu.Breakdown{Busy: 3}
	q.result(resultRequest{Worker: "w1", ID: 0, Breakdown: b, Instructions: 1, Check: resultCheck(0, b, 1)})
	if !resolved(j) || j.err != nil || j.breakdown != b {
		t.Fatalf("late verified result: resolved=%v err=%v, want it to resolve the attempt", resolved(j), j.err)
	}
	// A failure from the lease holder carries the worker's permanence.
	j2 := addCell(q, 1)
	q.claim(context.Background(), "w2")
	q.result(resultRequest{Worker: "w2", ID: 1, Error: "bad spec", Permanent: true})
	if !resolved(j2) || !exp.IsPermanent(j2.err) || j2.err.Error() != "bad spec" {
		t.Fatalf("permanent failure = %v, want the worker's error marked permanent", j2.err)
	}
}

func TestQueueAwaitWithdrawsOnCancel(t *testing.T) {
	q, _ := testQueue()
	j := addCell(q, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := q.await(ctx, j); !errors.Is(err, context.Canceled) {
		t.Fatalf("await after cancel = %v, want context.Canceled", err)
	}
	// The withdrawn attempt is never handed to a worker.
	if resp := q.claim(context.Background(), "w1"); resp.Job != nil {
		t.Fatalf("withdrawn attempt claimed: %+v", resp.Job)
	}
}

func TestGateBoundsAndSheds(t *testing.T) {
	g := newGate(1, 1)
	if err := g.acquire(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	// One waiter queues; the next is shed.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	waited := make(chan error, 1)
	go func() { waited <- g.acquire(ctx, "b") }()
	for {
		if _, queued := g.status(); queued == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := g.acquire(context.Background(), "c"); !errors.Is(err, errSaturated) {
		t.Fatalf("past high water: %v, want errSaturated", err)
	}
	// Release hands the slot to the waiter (active stays 1).
	g.release()
	if err := <-waited; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	if active, queued := g.status(); active != 1 || queued != 0 {
		t.Fatalf("after transfer: active=%d queued=%d, want 1/0", active, queued)
	}
	g.release()
	if active, _ := g.status(); active != 0 {
		t.Fatalf("active = %d after final release", active)
	}
}

func TestGateCanceledWaiterIsDiscarded(t *testing.T) {
	g := newGate(1, 4)
	if err := g.acquire(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- g.acquire(ctx, "b") }()
	for {
		if _, queued := g.status(); queued == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: %v", err)
	}
	// Releasing must not grant to the dead waiter: the slot frees.
	g.release()
	if active, queued := g.status(); active != 0 || queued != 0 {
		t.Fatalf("after release past dead waiter: active=%d queued=%d", active, queued)
	}
}

func TestGateFairAcrossClients(t *testing.T) {
	g := newGate(1, 8)
	if err := g.acquire(context.Background(), "hold"); err != nil {
		t.Fatal(err)
	}
	// Client a queues three waiters, client b one; round-robin must grant b
	// second, not last.
	var order []string
	var mu sync.Mutex
	var wg sync.WaitGroup
	enqueue := func(client string, depth int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.acquire(context.Background(), client); err != nil {
				t.Errorf("acquire %s: %v", client, err)
				return
			}
			mu.Lock()
			order = append(order, client)
			mu.Unlock()
			g.release()
		}()
		// Wait until this waiter is queued so arrival order is fixed.
		for {
			if _, queued := g.status(); queued == depth {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	enqueue("a", 1)
	enqueue("a", 2)
	enqueue("a", 3)
	enqueue("b", 4)
	g.release() // chain: each grantee releases, draining the queue
	wg.Wait()
	if len(order) != 4 {
		t.Fatalf("granted %d, want 4", len(order))
	}
	// Round-robin: a then b alternate while both have waiters.
	if order[0] != "a" || order[1] != "b" {
		t.Fatalf("grant order %v, want client b granted second (round-robin)", order)
	}
}
