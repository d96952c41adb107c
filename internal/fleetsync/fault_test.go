package fleetsync

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/nuwins/cellwheels/internal/fleet"
	"github.com/nuwins/cellwheels/internal/obs"
)

// Fault injection: the push protocol's whole point is that a flaky
// network — dropped connections, truncated uploads, corrupted bytes —
// cannot change the merged output. These tests wrap the client's
// Transport seam with a deterministic fault plan and demand the same
// byte-identical report the clean loopback test pins.

type faultKind int

const (
	faultNone     faultKind = iota
	faultDrop               // fail the request before it leaves
	faultTruncate           // deliver only the first half of the body
	faultCorrupt            // flip one byte of the body in transit
)

// faultingTransport consults a plan for every request, in order. The
// plan runs under the transport's lock, so stateful plans (counting
// PUTs, say) need no synchronization of their own.
type faultingTransport struct {
	base http.RoundTripper
	plan func(n int, req *http.Request) faultKind

	mu sync.Mutex
	n  int
}

func (ft *faultingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ft.mu.Lock()
	ft.n++
	n := ft.n
	kind := ft.plan(n, req)
	ft.mu.Unlock()
	switch kind {
	case faultDrop:
		if req.Body != nil {
			_ = req.Body.Close()
		}
		return nil, fmt.Errorf("injected: connection dropped before request %d", n)
	case faultTruncate:
		return ft.base.RoundTrip(rewriteBody(req, func(b []byte) []byte {
			return b[:len(b)/2]
		}))
	case faultCorrupt:
		return ft.base.RoundTrip(rewriteBody(req, func(b []byte) []byte {
			c := bytes.Clone(b)
			c[len(c)/2] ^= 0x40
			return c
		}))
	}
	return ft.base.RoundTrip(req)
}

// rewriteBody rebuilds the request around a transformed body, keeping
// the original headers. A truncated body arrives as a clean, short PUT,
// which the collector can only catch by its digest.
func rewriteBody(req *http.Request, f func([]byte) []byte) *http.Request {
	data, err := io.ReadAll(req.Body)
	_ = req.Body.Close()
	if err != nil {
		panic("fault_test: reading request body: " + err.Error())
	}
	out := f(data)
	r2 := req.Clone(req.Context())
	r2.Body = io.NopCloser(bytes.NewReader(out))
	r2.ContentLength = int64(len(out))
	return r2
}

func checkByteIdentical(t *testing.T, col *Collector) {
	t.Helper()
	wantReport, wantManifest := expectedBytes(t)
	res := col.Result()
	if got := res.Report(); got != wantReport {
		t.Errorf("report under faults differs from single-process run:\n--- got ---\n%s--- want ---\n%s", got, wantReport)
	}
	var man bytes.Buffer
	if err := res.Manifest.WriteJSON(&man); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(man.Bytes(), wantManifest) {
		t.Errorf("manifest under faults differs from single-process run:\n--- got ---\n%s--- want ---\n%s", man.Bytes(), wantManifest)
	}
}

func TestFlakyNetworkStillConvergesByteIdentical(t *testing.T) {
	rec := obs.New()
	col, srv := startCollector(t, rec)

	// The plan: three dropped requests at fixed ordinals, plus the first
	// and fourth PUTs truncated to half their bytes. Single worker, so
	// the request stream — and hence the whole fault trace — is
	// deterministic: 6 runs × (PUT + POST) plus one retry per fault is
	// 17 requests, so every ordinal below is reached.
	drops := map[int]bool{1: true, 7: true, 13: true}
	puts := 0
	ft := &faultingTransport{
		base: http.DefaultTransport,
		plan: func(n int, req *http.Request) faultKind {
			if drops[n] {
				return faultDrop
			}
			if req.Method == http.MethodPut {
				puts++
				if puts == 1 || puts == 4 {
					return faultTruncate
				}
			}
			return faultNone
		},
	}
	p := mustPusher(t, srv.URL, rec, func(c *PusherConfig) { c.Transport = ft })
	pushWorker(t, p, nil)

	if !col.Complete() {
		t.Fatalf("collector incomplete under faults: missing %+v", col.Manifest())
	}
	checkByteIdentical(t, col)
	if n := rec.Counter("fleetsync/pushes").Value(); n != 6 {
		t.Errorf("pushes = %d, want 6", n)
	}
	// A truncated PUT hashes to the wrong digest, is rejected, and is
	// sent again whole: one reject and one retry each.
	if n := rec.Counter("fleetsync/digest_rejects").Value(); n != 2 {
		t.Errorf("digest_rejects = %d, want one per truncated upload", n)
	}
	if n := rec.Counter("fleetsync/retries").Value(); n != 5 {
		t.Errorf("retries = %d, want one per dropped request and one per truncated upload", n)
	}
}

func TestCorruptedUploadRetriedCleanlyAfterDigestReject(t *testing.T) {
	rec := obs.New()
	col, srv := startCollector(t, rec)

	puts := 0
	ft := &faultingTransport{
		base: http.DefaultTransport,
		plan: func(n int, req *http.Request) faultKind {
			if req.Method == http.MethodPut {
				puts++
				if puts == 1 {
					return faultCorrupt
				}
			}
			return faultNone
		},
	}
	p := mustPusher(t, srv.URL, rec, func(c *PusherConfig) { c.Transport = ft })
	pushWorker(t, p, nil)

	// The collector hashed the mangled bytes and rejected them, and the
	// retry's clean upload went through — so the run set still converges
	// exactly.
	if !col.Complete() {
		t.Fatalf("collector incomplete after corrupt-then-clean upload: %+v", col.Manifest())
	}
	checkByteIdentical(t, col)
	if n := rec.Counter("fleetsync/digest_rejects").Value(); n != 1 {
		t.Errorf("digest_rejects = %d, want exactly the one corrupted upload", n)
	}
}

func TestPersistentCorruptionNeverPoisonsStore(t *testing.T) {
	rec := obs.New()
	col, srv := startCollector(t, rec)

	ft := &faultingTransport{
		base: http.DefaultTransport,
		plan: func(n int, req *http.Request) faultKind {
			if req.Method == http.MethodPut {
				return faultCorrupt
			}
			return faultNone
		},
	}
	p := mustPusher(t, srv.URL, rec, func(c *PusherConfig) { c.Transport = ft })

	rec0 := fleet.RunRecord{
		Index: 0, Cell: `mode="a"`, Replicate: 0,
		Seed: fleet.RunSeed(77, `mode="a"`, 0), Status: fleet.RunOK,
	}
	m0 := fleet.Metrics{"thr": 1, "rtt": 2}
	err := p.PushRun(rec0, m0)
	if err == nil {
		t.Fatal("push through a permanently corrupting wire succeeded")
	}
	if want := fmt.Sprintf("%d attempts", MaxAttempts); !strings.Contains(err.Error(), want) {
		t.Errorf("push error does not report its retry budget of %s: %v", want, err)
	}

	// Every attempt sent corrupt bytes and every one was rejected.
	if n := rec.Counter("fleetsync/digest_rejects").Value(); n != MaxAttempts {
		t.Errorf("digest_rejects = %d, want one per attempt (%d)", n, MaxAttempts)
	}
	if got := col.Manifest().Received; got != 0 {
		t.Errorf("collector folded %d runs from a corrupting wire", got)
	}
	// Nothing is stored under the artifact's true digest: the store was
	// never poisoned with the mangled bytes.
	data, err := EncodeArtifact(Artifact{Record: rec0, Metrics: m0})
	if err != nil {
		t.Fatal(err)
	}
	if col.store.Has(Digest(data)) {
		t.Error("corrupted upload left a blob in the store")
	}
	if _, err := col.store.Get(Digest(data)); err == nil {
		t.Error("corrupted upload left a readable blob in the store")
	}
}
