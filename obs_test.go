package cellwheels

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"testing"

	"github.com/nuwins/cellwheels/internal/obs"
)

// TestObsDatasetByteIdentical is the observability subsystem's core
// contract: attaching a Recorder must not perturb the simulation by a
// single byte. The obs layer is write-only — if instrumentation ever
// leaked back into a simulation decision (or reordered one), this is the
// test that catches it.
func TestObsDatasetByteIdentical(t *testing.T) {
	cfg := Config{Seed: 33, LimitKm: 30, VideoSeconds: 15, GamingSeconds: 10, Workers: 3}

	jsonFor := func(rec *obs.Recorder) []byte {
		t.Helper()
		c := cfg
		c.Obs = rec
		s, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	off := jsonFor(nil)
	on := jsonFor(obs.New())
	if !bytes.Equal(off, on) {
		t.Error("dataset with observability on differs from observability off")
	}
}

// TestObsManifestCountsMatchDataset runs an instrumented campaign and
// checks the manifest's table/* counters against the exported dataset:
// the manifest must describe the run it shipped with, not an estimate.
func TestObsManifestCountsMatchDataset(t *testing.T) {
	rec := obs.New()
	s, err := Run(Config{Seed: 11, LimitKm: 30, VideoSeconds: 15, GamingSeconds: 10, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	man := rec.Manifest()

	if got, want := man.Counters["table/tests"], int64(s.Summary().Tests); got != want {
		t.Errorf("table/tests = %d, dataset has %d", got, want)
	}

	dir := t.TempDir()
	if err := s.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	tables := []struct {
		counter string
		file    string
	}{
		{"table/throughput", "throughput.csv"},
		{"table/rtt", "rtt.csv"},
		{"table/handovers", "handovers.csv"},
		{"table/appruns", "appruns.csv"},
	}
	for _, tab := range tables {
		f, err := os.Open(filepath.Join(dir, tab.file))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		// One header row; the rest are data.
		if got, want := man.Counters[tab.counter], int64(len(rows)-1); got != want {
			t.Errorf("%s = %d, %s has %d data rows", tab.counter, got, tab.file, want)
		}
	}

	// The run is stamped with its seed and config hash, and the config
	// hash must not depend on the Obs pointer itself.
	if man.Labels["seed"] != "11" {
		t.Errorf("seed label = %q", man.Labels["seed"])
	}
	plain := Config{Seed: 11, LimitKm: 30, VideoSeconds: 15, GamingSeconds: 10}
	if got, want := man.Labels["config_sha256"], plain.fingerprint(); got != want {
		t.Errorf("config_sha256 = %q, fingerprint of Obs-free config = %q", got, want)
	}

	// Phases cover every lane plus merge and the run itself.
	for _, phase := range []string{"run", "merge", "lane/V", "lane/T", "lane/A"} {
		if _, ok := man.PhaseMS[phase]; !ok {
			t.Errorf("manifest missing phase %q (have %v)", phase, man.PhaseMS)
		}
	}
}

// TestObsManifestSetupPhases checks that campaign set-up shows in the
// manifest: the deployment maps under "deploy", and the drive schedule
// under "timeline" only when the run builds one itself rather than
// replaying a shared one.
func TestObsManifestSetupPhases(t *testing.T) {
	cfg := Config{Seed: 5, LimitKm: 2, SkipApps: true}
	phases := func(c Config) map[string]float64 {
		t.Helper()
		rec := obs.New()
		c.Obs = rec
		if _, err := Run(c); err != nil {
			t.Fatal(err)
		}
		return rec.Manifest().PhaseMS
	}

	own := phases(cfg)
	for _, phase := range []string{"deploy", "timeline"} {
		if _, ok := own[phase]; !ok {
			t.Errorf("manifest missing phase %q (have %v)", phase, own)
		}
	}

	tl, err := PrecomputeTimeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shared := cfg
	shared.SharedTimeline = tl
	replayed := phases(shared)
	if _, ok := replayed["deploy"]; !ok {
		t.Errorf("shared-timeline run missing phase \"deploy\" (have %v)", replayed)
	}
	if _, ok := replayed["timeline"]; ok {
		t.Errorf("shared-timeline run records a \"timeline\" phase it did not build")
	}
}
