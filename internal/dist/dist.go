// Package dist is the fault-tolerant distributed sweep service: a
// coordinator that shards the replay cells of a figure or window sweep to
// remote workers over HTTP, designed failure-first. The paper's evaluation
// is an embarrassingly parallel matrix of independent trace replays, so the
// only hard problem is keeping the merged output byte-identical while
// workers crash, stall, and reconnect — which this package treats as the
// contract, not a best effort:
//
//   - The sweep itself is exp's one sweep loop (exp.Experiment.Sweep) with
//     the coordinator's Replay hook: generation, the result cache and its
//     verification, the job board, fault sites and the retry budget are
//     the same code a local run uses. The hook leases one attempt at a
//     time to the worker fleet.
//   - Attempts move through a lease-based queue. A worker claims a cell
//     (POST /jobs/claim), holds it under a lease renewed by heartbeats
//     (POST /jobs/heartbeat), and reports the replayed numbers back with the
//     cell index (POST /jobs/result). A missed lease fails the attempt, and
//     the sweep loop retries it under the cell's -retries budget like any
//     other transient failure; a cell that keeps failing degrades to the
//     existing *exp.PartialError / FAILED-cell path instead of sinking the
//     run.
//   - Traces travel through a content-addressed cache (GET /traces/{fnv}):
//     the address is the FNV-64a of the serialized v3 trace, the v3 format
//     carries per-chunk CRCs plus a whole-file checksum, and the worker
//     re-verifies both, so a corrupted transfer is a retried fetch, never a
//     wrong answer.
//   - Admission control bounds the coordinator: past the high-water mark of
//     queued requests, claims answer 429 with Retry-After, and the waiters
//     drain fairly (FIFO per client, round-robin across clients).
//
// Results merge by cell index exactly as exp's in-process scheduler does,
// and a replay is a pure function of (trace, spec), so the merged columns —
// and the run ledger's determinism checksum — are byte-identical to a
// single-process run at any topology, any worker count, and under any
// failure schedule. The chaos test drives exactly that claim.
package dist

import (
	"fmt"
	"hash/fnv"

	"dynsched/internal/cpu"
	"dynsched/internal/exp"
)

// HTTP endpoints served by the coordinator.
const (
	pathClaim     = "/jobs/claim"
	pathResult    = "/jobs/result"
	pathHeartbeat = "/jobs/heartbeat"
	pathTraces    = "/traces/"
	pathState     = "/state"
)

// workerHeader carries the worker id on every request, for per-client
// admission fairness.
const workerHeader = "X-Dist-Worker"

// claimRequest asks for one cell to replay.
type claimRequest struct {
	Worker string `json:"worker"`
}

// claimResponse is the coordinator's answer: a job, "come back later" (after
// RetryAfterMillis, or at once when it is zero), or "the sweep is
// complete".
type claimResponse struct {
	Done             bool           `json:"done,omitempty"`
	Wait             bool           `json:"wait,omitempty"`
	RetryAfterMillis int64          `json:"retry_after_ms,omitempty"`
	Job              *jobAssignment `json:"job,omitempty"`
}

// jobAssignment is one leased cell: the serializable spec, the address of
// the trace to replay it over, and the lease the worker must renew.
type jobAssignment struct {
	ID          int          `json:"id"` // cell index: app*cells+cell, the merge key
	App         string       `json:"app"`
	Label       string       `json:"label"` // sweep-unique, "mp3d RC-DS64"
	Spec        exp.CellSpec `json:"spec"`
	TraceFNV    string       `json:"trace_fnv"`
	LeaseMillis int64        `json:"lease_ms"`
}

// resultRequest reports a finished cell: the replayed numbers plus a
// checksum, or the failure and whether exp's retry policy calls it
// permanent.
type resultRequest struct {
	Worker       string        `json:"worker"`
	ID           int           `json:"id"`
	Breakdown    cpu.Breakdown `json:"breakdown"`
	Instructions uint64        `json:"instructions"`
	Check        string        `json:"check,omitempty"`
	Error        string        `json:"error,omitempty"`
	Permanent    bool          `json:"permanent,omitempty"`
}

// heartbeatRequest renews the leases of the worker's in-flight jobs.
type heartbeatRequest struct {
	Worker string `json:"worker"`
	IDs    []int  `json:"ids"`
}

type okResponse struct {
	OK bool `json:"ok"`
}

// traceAddr is the content address of a serialized trace: FNV-64a over the
// exact bytes served. The worker recomputes it over what it received, so a
// transfer corrupted in a way the v3 CRCs somehow missed still fails the
// address check and is retried.
func traceAddr(data []byte) string {
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// resultCheck is the end-to-end checksum of one cell result. Both sides
// compute it over the numbers plus the cell index, so a result corrupted in
// flight — or attached to the wrong job — is rejected (409) and re-sent
// rather than merged.
func resultCheck(id int, b cpu.Breakdown, instructions uint64) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%d|%d|%d|%d|%d",
		id, b.Busy, b.Sync, b.Read, b.Write, b.Branch, b.Other, instructions)
	return fmt.Sprintf("%016x", h.Sum64())
}
