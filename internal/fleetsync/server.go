package fleetsync

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"github.com/nuwins/cellwheels/internal/fleet"
	"github.com/nuwins/cellwheels/internal/obs"
)

// Collector is the receiving half of a distributed fleet: an HTTP server
// state machine that accepts content-addressed run artifacts from
// workers, verifies each one by digest, validates it against the
// scenario's positional run matrix, and streams it through a
// fleet.Reducer. When every expected run has arrived, Done is closed and
// Result reads out statistics byte-identical to a single-process fleet.
//
// All mutable state is guarded by one mutex; handlers run on net/http's
// goroutines and read their request bodies before taking it. The
// reduction itself is slot-addressed, so whatever order pushes arrive
// in — including interleaved workers and retried duplicates — cannot
// show in the output.
type Collector struct {
	scenario string
	store    *Store
	obs      *obs.Recorder

	mu      sync.Mutex
	reducer *fleet.Reducer
	have    []HaveRun // accepted runs in acceptance order; sorted on read
	version int
	// manifestDirty marks a fold whose sync-manifest archive failed; the
	// next announce (usually the worker's retry, landing as a duplicate)
	// retries the persist.
	manifestDirty bool
	done          chan struct{}
}

// NewCollector builds a collector for one scenario. scenario is the
// fingerprint both sides must present (wheelsd and fleetrun -push use
// cellwheels.FleetConfig.Fingerprint); reducer expects the scenario's
// full run matrix; store persists artifacts and sync-manifest versions.
// rec may be nil.
func NewCollector(scenario string, reducer *fleet.Reducer, store *Store, rec *obs.Recorder) (*Collector, error) {
	if scenario == "" {
		return nil, errors.New("fleetsync: collector needs a scenario fingerprint")
	}
	if reducer == nil || store == nil {
		return nil, errors.New("fleetsync: collector needs a reducer and a store")
	}
	c := &Collector{
		scenario: scenario,
		store:    store,
		obs:      rec,
		reducer:  reducer,
		done:     make(chan struct{}),
	}
	if reducer.Complete() {
		close(c.done)
	}
	return c, nil
}

// Done is closed once every expected run has been received and folded.
func (c *Collector) Done() <-chan struct{} { return c.done }

// Complete reports whether the reduction has every expected run.
func (c *Collector) Complete() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reducer.Complete()
}

// Result reads the reduction out. Callers normally wait for Done first;
// an early read is a valid partial fold (missing runs' slots are empty).
func (c *Collector) Result() *fleet.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reducer.Result()
}

// Manifest snapshots the collector's sync state.
func (c *Collector) Manifest() SyncManifest {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.manifestLocked()
}

func (c *Collector) manifestLocked() SyncManifest {
	have := make([]HaveRun, len(c.have))
	copy(have, c.have)
	// Acceptance order is arrival order; the manifest's public shape is
	// index order (indexes are unique, so the sort is total).
	sort.SliceStable(have, func(i, j int) bool { return have[i].Index < have[j].Index })
	man := SyncManifest{
		Schema:   SyncSchema,
		Scenario: c.scenario,
		Version:  c.version,
		Total:    c.reducer.Total(),
		Received: c.reducer.Received(),
		Have:     have,
	}
	man.Failed = c.reducer.Result().Manifest.Failed
	return man
}

// Handler returns the collector's HTTP interface, rooted at BasePath.
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(BasePath+"/status", c.handleStatus)
	mux.HandleFunc(BasePath+"/blobs/", c.handleBlob)
	mux.HandleFunc(BasePath+"/runs", c.handleRuns)
	return mux
}

func (c *Collector) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, c.Manifest())
}

// handleBlob receives one whole artifact upload. The body is read in
// full — capped at MaxBlobBytes — and committed only if it hashes to the
// digest it was sent under, so a truncated or corrupted upload is
// answered 422 and leaves nothing behind; the worker sends it again.
// No collector lock is held: the store commits by atomic rename, and a
// slow uploader must not stall other workers' announces.
func (c *Collector) handleBlob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPut {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	digest := strings.TrimPrefix(r.URL.Path, BasePath+"/blobs/")
	if !validDigest(digest) {
		http.Error(w, "bad blob digest", http.StatusBadRequest)
		return
	}
	body := http.MaxBytesReader(w, r.Body, MaxBlobBytes)
	if c.store.Has(digest) {
		// Already held: idempotent success. Drain the body so the
		// connection stays reusable.
		_, _ = io.Copy(io.Discard, body)
		w.WriteHeader(http.StatusOK)
		return
	}
	data, err := io.ReadAll(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, "blob exceeds MaxBlobBytes", http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "read blob: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := c.store.Put(digest, data); err != nil {
		if errors.Is(err, ErrDigestMismatch) {
			c.obs.Counter("fleetsync/digest_rejects").Add(1)
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

// handleRuns folds an announced, already-uploaded artifact into the
// reduction. Every safety check happens here: scenario fingerprint,
// stored-blob digest, artifact/announce agreement, and the reducer's own
// positional validation (cell, replicate, seed). Announcing a folded run
// again is a duplicate no-op, so workers can retry blindly.
func (c *Collector) handleRuns(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req PushRun
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "bad announce body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Scenario != c.scenario {
		http.Error(w, fmt.Sprintf("scenario mismatch: collector is reducing %s", c.scenario), http.StatusConflict)
		return
	}
	if !validDigest(req.Digest) {
		http.Error(w, "bad blob digest", http.StatusBadRequest)
		return
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reducer.Seen(req.Index) {
		if c.manifestDirty {
			if err := c.persistManifestLocked(); err != nil {
				http.Error(w, "persist sync manifest: "+err.Error(), http.StatusInternalServerError)
				return
			}
			c.manifestDirty = false
		}
		writeJSON(w, http.StatusOK, PushResult{
			Status: PushDuplicate, Received: c.reducer.Received(), Total: c.reducer.Total(),
		})
		return
	}
	data, err := c.store.Get(req.Digest)
	if err != nil {
		if errors.Is(err, ErrDigestMismatch) {
			c.obs.Counter("fleetsync/digest_rejects").Add(1)
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		http.Error(w, "artifact not uploaded: "+req.Digest, http.StatusNotFound)
		return
	}
	art, err := DecodeArtifact(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	if art.Record.Index != req.Index {
		http.Error(w, fmt.Sprintf("artifact is run %d, announce says %d", art.Record.Index, req.Index), http.StatusUnprocessableEntity)
		return
	}
	if err := c.reducer.Fold(art.Record, art.Metrics); err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	c.version++
	c.have = append(c.have, HaveRun{Index: req.Index, Digest: req.Digest})
	c.obs.Counter("fleetsync/runs_received").Add(1)
	if c.reducer.Complete() {
		close(c.done)
	}
	if err := c.persistManifestLocked(); err != nil {
		// The fold is kept — it cannot be undone — and the archive retry
		// rides on the worker's announce retry, which lands as a
		// duplicate and re-persists.
		c.manifestDirty = true
		http.Error(w, "persist sync manifest: "+err.Error(), http.StatusInternalServerError)
		return
	}
	c.manifestDirty = false
	writeJSON(w, http.StatusOK, PushResult{
		Status: PushAccepted, Received: c.reducer.Received(), Total: c.reducer.Total(),
	})
}

// persistManifestLocked archives the current sync-manifest version.
func (c *Collector) persistManifestLocked() error {
	data, err := json.MarshalIndent(c.manifestLocked(), "", "  ")
	if err != nil {
		return err
	}
	return c.store.WriteManifestVersion(c.version, append(data, '\n'))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if _, err := w.Write(data); err != nil {
		return // client went away
	}
}
