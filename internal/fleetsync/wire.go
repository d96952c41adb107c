// Package fleetsync distributes a fleet across machines: workers execute
// disjoint subsets of a scenario's sweep cells and push each finished
// run's artifact to a collector over HTTP; the collector verifies every
// artifact by content digest and streams it through the same
// slot-addressed reduction (fleet.Reducer) a single-process fleet uses —
// so the merged report and fleet manifest are byte-identical to running
// the whole scenario in one process, whatever the workers, network
// faults, or arrival order did.
//
// The wire protocol is a minimal content-addressed push, in the shape
// of qri's logbook/logsync exchange:
//
//	GET  {base}/status          → SyncManifest (what the collector has)
//	PUT  {base}/blobs/{digest}  → upload one whole artifact: 201 committed,
//	                              200 already held, 413 over MaxBlobBytes,
//	                              422 bytes do not hash to {digest}
//	POST {base}/runs            → announce an uploaded run for reduction
//
// Artifacts are immutable and named by the sha256 of their canonical
// bytes, so every transfer is verifiable at the receiver: a blob whose
// bytes do not hash to its name is rejected, never stored. An artifact
// is a few KiB, so an upload that fails in any way — dropped, truncated,
// corrupted — is simply sent again whole. Every announced run is
// validated against the scenario's positional run matrix before it is
// folded, so a confused worker cannot corrupt the reduction. Pushes are
// idempotent: re-uploading a held blob or re-announcing a folded run is
// a no-op, which is what makes blind worker retries safe.
package fleetsync

import "fmt"

// SyncSchema versions the wire protocol and the sync manifest layout.
const SyncSchema = 1

// BasePath prefixes every fleetsync route.
const BasePath = "/fleetsync/v1"

// MaxBlobBytes caps a single uploaded artifact. The collector buffers an
// upload in memory to verify it, and an artifact — one run record plus
// its headline metrics — is a few KiB, so 1 MiB leaves ample headroom
// while bounding what one lying or broken worker can make it hold.
const MaxBlobBytes = 1 << 20

// SyncManifest is the collector's versioned statement of what it holds:
// which runs of the scenario's matrix have been received and folded. The
// version increments on every accepted run, and each version is archived
// in the collector's store, so the sync state has an inspectable history.
type SyncManifest struct {
	Schema int `json:"schema"`
	// Scenario fingerprints the scenario document both sides must agree
	// on; pushes for any other scenario are rejected.
	Scenario string `json:"scenario"`
	// Version counts accepted runs, from 0 (empty collector).
	Version int `json:"version"`
	// Total is the size of the expected run matrix; Received of those
	// have been folded, Failed of the received runs failed on their
	// worker.
	Total    int `json:"total"`
	Received int `json:"received"`
	Failed   int `json:"failed"`
	// Have lists the folded runs' full-matrix indexes, ascending, with
	// the digest of each run's artifact — the content-addressed record of
	// what the collector holds.
	Have []HaveRun `json:"have"`
}

// HaveRun names one folded run and its artifact digest.
type HaveRun struct {
	Index  int    `json:"index"`
	Digest string `json:"digest"`
}

// PushRun announces one uploaded artifact for reduction.
type PushRun struct {
	Scenario string `json:"scenario"`
	Index    int    `json:"index"`
	Digest   string `json:"digest"`
}

// PushRun response statuses.
const (
	// PushAccepted: the run was verified and folded.
	PushAccepted = "accepted"
	// PushDuplicate: the run was already folded; the announce was a
	// no-op. Idempotent retries land here.
	PushDuplicate = "duplicate"
)

// PushResult is the collector's answer to a PushRun.
type PushResult struct {
	Status   string `json:"status"`
	Received int    `json:"received"`
	Total    int    `json:"total"`
}

// wireError renders protocol failures consistently.
func wireError(op string, code int, detail string) error {
	return fmt.Errorf("fleetsync: %s: HTTP %d: %s", op, code, detail)
}
