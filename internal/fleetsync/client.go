package fleetsync

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/nuwins/cellwheels/internal/fleet"
	"github.com/nuwins/cellwheels/internal/obs"
)

// Client-side limits. Each protocol step is bounded by MaxAttempts
// requests, each with its own RequestTimeout, with exponential backoff
// between BackoffBase and BackoffMax plus jitter between attempts — a
// worker never hangs forever on a dead collector and never hammers a
// briefly hiccuping one.
const (
	RequestTimeout = 30 * time.Second
	MaxAttempts    = 8
	BackoffBase    = 100 * time.Millisecond
	BackoffMax     = 5 * time.Second
)

// PusherConfig parameterizes a worker's sync client.
type PusherConfig struct {
	// BaseURL locates the collector, e.g. "http://10.0.0.7:8080".
	BaseURL string
	// Scenario is the scenario fingerprint the collector was started
	// with; mismatched pushes are rejected before any run is folded.
	Scenario string
	// Transport, when non-nil, replaces the default HTTP transport — the
	// fault-injection seam the flaky-network tests use.
	Transport http.RoundTripper
	// Obs counts pushes and retries. Nil is a no-op.
	Obs *obs.Recorder
	// Sleep replaces time.Sleep between retries in tests. Nil means
	// time.Sleep.
	Sleep func(time.Duration)
}

// Pusher uploads run artifacts to a collector idempotently: it can be
// killed at any byte of any request and a fresh PushRun of the same run
// converges without duplicating or corrupting anything on the collector.
type Pusher struct {
	cfg    PusherConfig
	client *http.Client
}

// NewPusher builds a sync client.
func NewPusher(cfg PusherConfig) (*Pusher, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("fleetsync: pusher needs a collector URL")
	}
	if cfg.Scenario == "" {
		return nil, fmt.Errorf("fleetsync: pusher needs a scenario fingerprint")
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	return &Pusher{cfg: cfg, client: &http.Client{Transport: cfg.Transport}}, nil
}

// PushRun syncs one finished run to the collector: encode the canonical
// artifact, upload its bytes whole, and announce it for reduction. Safe
// to call for a run the collector already has — the upload and the
// announce both land as no-ops.
func (p *Pusher) PushRun(rec fleet.RunRecord, m fleet.Metrics) error {
	data, err := EncodeArtifact(Artifact{Record: rec, Metrics: m})
	if err != nil {
		return err
	}
	digest := Digest(data)
	err = p.send("upload "+digest, http.MethodPut, "/blobs/"+digest, data, func(resp *http.Response) error {
		switch resp.StatusCode {
		case http.StatusCreated, http.StatusOK:
			return nil
		case http.StatusRequestEntityTooLarge:
			return permanent{wireError("blob upload", resp.StatusCode, readErrBody(resp))}
		}
		// 422 included: the collector hashed our bytes to something
		// else, so they were damaged in transit — send them again.
		return wireError("blob upload", resp.StatusCode, readErrBody(resp))
	})
	if err != nil {
		return fmt.Errorf("fleetsync: push run %d: %w", rec.Index, err)
	}
	// Announce is idempotent on the collector, so a retry after a lost
	// response cannot double-fold.
	body, err := json.Marshal(PushRun{Scenario: p.cfg.Scenario, Index: rec.Index, Digest: digest})
	if err != nil {
		return err
	}
	err = p.send(fmt.Sprintf("announce of run %d", rec.Index), http.MethodPost, "/runs", body, func(resp *http.Response) error {
		switch resp.StatusCode {
		case http.StatusOK:
			var res PushResult
			return json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&res)
		case http.StatusConflict, http.StatusUnprocessableEntity:
			// Scenario mismatch or validation failure: retrying the same
			// bytes cannot succeed.
			return permanent{wireError("announce", resp.StatusCode, readErrBody(resp))}
		}
		return wireError("announce", resp.StatusCode, readErrBody(resp))
	})
	if err != nil {
		return fmt.Errorf("fleetsync: push run %d: %w", rec.Index, err)
	}
	p.cfg.Obs.Counter("fleetsync/pushes").Add(1)
	return nil
}

// Status pulls the collector's sync manifest — what it holds already —
// so a restarted worker can skip runs that made it through before the
// crash.
func (p *Pusher) Status() (SyncManifest, error) {
	var man SyncManifest
	err := p.send("status", http.MethodGet, "/status", nil, func(resp *http.Response) error {
		if resp.StatusCode != http.StatusOK {
			return wireError("status", resp.StatusCode, readErrBody(resp))
		}
		return json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&man)
	})
	if err != nil {
		return man, fmt.Errorf("fleetsync: %w", err)
	}
	if man.Scenario != p.cfg.Scenario {
		return man, fmt.Errorf("fleetsync: collector is reducing scenario %s, not ours", man.Scenario)
	}
	return man, nil
}

// permanent marks a collector answer that resending the same request
// cannot change; send stops retrying on it.
type permanent struct{ err error }

func (e permanent) Error() string { return e.err.Error() }
func (e permanent) Unwrap() error { return e.err }

// send is the one retry loop behind every protocol step: it issues the
// request and hands the response to handle, retrying transport errors
// and handle's errors under backoff, up to MaxAttempts times. A
// permanent error from handle ends the step at once. op names the step
// in errors and keys its jitter.
func (p *Pusher) send(op, method, path string, body []byte, handle func(*http.Response) error) error {
	var lastErr error
	for attempt := 0; attempt < MaxAttempts; attempt++ {
		if attempt > 0 {
			p.cfg.Obs.Counter("fleetsync/retries").Add(1)
			p.cfg.Sleep(backoff(op, attempt))
		}
		err := p.try(method, path, body, handle)
		var perm permanent
		if err == nil || errors.As(err, &perm) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("%s failed after %d attempts: %w", op, MaxAttempts, lastErr)
}

// try makes one attempt of a step under RequestTimeout.
func (p *Pusher) try(method, path string, body []byte, handle func(*http.Response) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimSuffix(p.cfg.BaseURL, "/")+BasePath+path, bytes.NewReader(body))
	if err != nil {
		return permanent{err}
	}
	// Both bodies the protocol sends — artifacts and announces — are JSON.
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	return handle(resp)
}

// backoff computes the wait before the given retry attempt: exponential
// in the attempt number, capped, with ±25% deterministic jitter keyed by
// (key, attempt) — workers retrying the same outage spread out without
// any shared randomness, and a given retry schedule is reproducible.
func backoff(key string, attempt int) time.Duration {
	d := BackoffBase << (attempt - 1)
	if d > BackoffMax || d <= 0 {
		d = BackoffMax
	}
	h := splitmix64(uint64(attempt)*0x9e3779b97f4a7c15 + hashString(key))
	// frac in [0.75, 1.25)
	frac := 0.75 + float64(h>>11)/float64(1<<53)/2
	return time.Duration(float64(d) * frac)
}

// hashString is FNV-1a, inlined so the hot retry path needs no allocs.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// splitmix64 is the finalizer used across the repo for positional
// randomness (see internal/ue); here it whitens the jitter key.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// drain discards the remainder of a response body and closes it, keeping
// the connection reusable. Read-only close: the error is unactionable.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	_ = resp.Body.Close()
}

func readErrBody(resp *http.Response) string {
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
	if err != nil {
		return resp.Status
	}
	return strings.TrimSpace(string(data))
}
