package fleetsync

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/nuwins/cellwheels/internal/fleet"
	"github.com/nuwins/cellwheels/internal/obs"
)

// sampleArtifact holds the encoding's hard cases: a non-terminating
// binary fraction, a float's next neighbour, NaN, −Inf and −0.
func sampleArtifact() Artifact {
	return Artifact{
		Record: fleet.RunRecord{
			Index: 3, Cell: `mode="b"`, Replicate: 1, Seed: 12345, Status: fleet.RunOK,
		},
		Metrics: fleet.Metrics{
			"thr":     1.0 / 3.0,
			"rtt":     math.Nextafter(2.5, 3),
			"nan":     math.NaN(),
			"neginf":  math.Inf(-1),
			"negzero": math.Copysign(0, -1),
		},
	}
}

// sameArtifact reports how got differs from want, bit for bit, or "".
func sameArtifact(got, want Artifact) string {
	if got.Record != want.Record {
		return fmt.Sprintf("record %+v != %+v", got.Record, want.Record)
	}
	if len(got.Metrics) != len(want.Metrics) {
		return fmt.Sprintf("%d metrics, want %d", len(got.Metrics), len(want.Metrics))
	}
	for name, wv := range want.Metrics {
		gv, ok := got.Metrics[name]
		if !ok {
			return fmt.Sprintf("metric %q lost", name)
		}
		if math.Float64bits(gv) != math.Float64bits(wv) {
			return fmt.Sprintf("metric %q = %x bits, want %x — not bit-exact", name, math.Float64bits(gv), math.Float64bits(wv))
		}
	}
	return ""
}

func TestArtifactRoundTripIsBitExact(t *testing.T) {
	a := sampleArtifact()
	data, err := EncodeArtifact(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameArtifact(got, a); diff != "" {
		t.Errorf("round trip: %s", diff)
	}
	// Canonical: encoding twice (and after a round trip) gives the same
	// bytes, hence the same digest.
	again, err := EncodeArtifact(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Errorf("encoding is not canonical:\n%s\n%s", data, again)
	}
}

// FuzzDecodeArtifact: whatever DecodeArtifact accepts re-encodes to
// bytes that decode to a bit-identical artifact, NaN and −0 included.
func FuzzDecodeArtifact(f *testing.F) {
	seed, err := EncodeArtifact(sampleArtifact())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeArtifact(data)
		if err != nil {
			return
		}
		enc, err := EncodeArtifact(a)
		if err != nil {
			t.Fatalf("accepted artifact does not re-encode: %v", err)
		}
		b, err := DecodeArtifact(enc)
		if err != nil {
			t.Fatalf("re-encoded artifact rejected: %v\n%s", err, enc)
		}
		if diff := sameArtifact(b, a); diff != "" {
			t.Errorf("re-encode round trip: %s\ninput: %q\nre-encoded: %s", diff, data, enc)
		}
	})
}

func TestStorePutGetVerifies(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(`{"hello":"world"}`)
	d := Digest(data)
	if err := s.Put(d, data); err != nil {
		t.Fatal(err)
	}
	if !s.Has(d) {
		t.Fatal("blob missing after Put")
	}
	got, err := s.Get(d)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	// Wrong digest for the content: never stored.
	if err := s.Put(Digest([]byte("other")), data); !errors.Is(err, ErrDigestMismatch) {
		t.Errorf("Put with wrong digest: %v, want ErrDigestMismatch", err)
	}
	// On-disk corruption surfaces on Get.
	if err := os.WriteFile(filepath.Join(s.Root(), "blobs", d), []byte("corrupted"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(d); !errors.Is(err, ErrDigestMismatch) {
		t.Errorf("Get of corrupted blob: %v, want ErrDigestMismatch", err)
	}
}

// putBlob sends one whole-artifact PUT straight to the collector's
// handler and returns the status code.
func putBlob(t *testing.T, col *Collector, digest string, body []byte) int {
	t.Helper()
	req := httptest.NewRequest(http.MethodPut, BasePath+"/blobs/"+digest, bytes.NewReader(body))
	w := httptest.NewRecorder()
	col.Handler().ServeHTTP(w, req)
	return w.Code
}

func TestPutCorruptBlobRejected(t *testing.T) {
	rec := obs.New()
	col, _ := startCollector(t, rec)
	data := []byte("the true content")
	d := Digest(data)
	if code := putBlob(t, col, d, []byte("the fake content")); code != http.StatusUnprocessableEntity {
		t.Fatalf("PUT of bytes that do not hash to their name: HTTP %d, want 422", code)
	}
	if col.store.Has(d) {
		t.Error("corrupt bytes were committed")
	}
	if n := rec.Counter("fleetsync/digest_rejects").Value(); n != 1 {
		t.Errorf("digest_rejects = %d, want 1", n)
	}
	// The whole retry commits; a repeat is an idempotent no-op.
	if code := putBlob(t, col, d, data); code != http.StatusCreated {
		t.Fatalf("clean PUT after a reject: HTTP %d, want 201", code)
	}
	if code := putBlob(t, col, d, data); code != http.StatusOK {
		t.Errorf("PUT of a held blob: HTTP %d, want 200", code)
	}
	if got, err := col.store.Get(d); err != nil || !bytes.Equal(got, data) {
		t.Errorf("Get after commit = %q, %v", got, err)
	}
}

func TestPutOverCapRejected(t *testing.T) {
	rec := obs.New()
	col, srv := startCollector(t, rec)
	data := bytes.Repeat([]byte("x"), MaxBlobBytes+1)
	d := Digest(data)
	if code := putBlob(t, col, d, data); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("PUT of %d bytes: HTTP %d, want 413", len(data), code)
	}
	if col.store.Has(d) {
		t.Error("over-cap blob was committed")
	}
	blobs, err := os.ReadDir(filepath.Join(col.store.Root(), "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 0 {
		t.Errorf("over-cap PUT left %d files in blobs/", len(blobs))
	}

	// A worker with an over-cap artifact gives up at once: resending
	// cannot shrink it.
	big := fleet.Metrics{}
	for i := 0; len(big)*40 <= MaxBlobBytes; i++ {
		big[fmt.Sprintf("metric-%032d", i)] = 1
	}
	p := mustPusher(t, srv.URL, rec, nil)
	err = p.PushRun(fleet.RunRecord{Index: 0, Cell: `mode="a"`, Seed: fleet.RunSeed(77, `mode="a"`, 0), Status: fleet.RunOK}, big)
	if err == nil || !strings.Contains(err.Error(), "413") {
		t.Errorf("push of an over-cap artifact: %v, want a 413 rejection", err)
	}
	if n := rec.Counter("fleetsync/retries").Value(); n != 0 {
		t.Errorf("over-cap push retried %d times, want 0", n)
	}
}

func TestValidDigest(t *testing.T) {
	good := Digest([]byte("x"))
	if !validDigest(good) {
		t.Errorf("real digest rejected: %s", good)
	}
	for _, bad := range []string{"", "abc", strings.Repeat("g", 64), "../../etc/passwd", strings.Repeat("A", 64)} {
		if validDigest(bad) {
			t.Errorf("bad digest accepted: %q", bad)
		}
	}
}
