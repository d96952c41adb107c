package cellwheels

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/golden/*.sha256 output digests")

// goldenCases are the configurations whose outputs are pinned across
// commits. Each digest file lists one sha256 per output, in sha256sum
// format, so `sha256sum -c` can check a hand-made run against it.
var goldenCases = []struct {
	name string
	cfg  Config
	// maps also pins the outputs that sample the deployment maps over
	// the whole route: MeasuredOokla(40) and the coverage GeoJSON files.
	maps bool
}{
	{
		name: "campaign-seed17-30km",
		cfg:  Config{Seed: 17, LimitKm: 30, VideoSeconds: 15, GamingSeconds: 10},
		maps: true,
	},
	{
		name: "crowd-seed1-2km-1e4",
		cfg: Config{
			Seed: 1, LimitKm: 2, SkipApps: true,
			CrowdSize: 10_000, CrowdSamples: 4, LoadModel: LoadModelDemand,
		},
	},
}

// TestGoldenDigests pins simulator output across commits, not just across
// two runs of one build: the dataset JSON, the CSV exports and the report
// of each golden configuration must hash to the checked-in digests. A
// digest may change only for an intended model change; regenerate with
//
//	go test -run TestGoldenDigests -update .
func TestGoldenDigests(t *testing.T) {
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			got := goldenDigests(t, gc.cfg, gc.maps)
			path := filepath.Join("testdata", "golden", gc.name+".sha256")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (generate with -update)", err)
			}
			if got != string(want) {
				t.Errorf("output digests changed:\ngot:\n%swant:\n%s", got, want)
			}
		})
	}
}

// goldenDigests runs cfg and renders one "<sha256>  <output>" line per
// output; with maps it adds the whole-route map outputs.
func goldenDigests(t *testing.T, cfg Config, maps bool) string {
	t.Helper()
	s, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	line := func(name string, data []byte) {
		sum := sha256.Sum256(data)
		fmt.Fprintf(&b, "%s  %s\n", hex.EncodeToString(sum[:]), name)
	}
	var js bytes.Buffer
	if err := s.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	line("dataset.json", js.Bytes())
	dir := t.TempDir()
	if err := s.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"throughput.csv", "rtt.csv", "handovers.csv", "appruns.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		line(name, data)
	}
	line("report.txt", []byte(s.Report()))
	if !maps {
		return b.String()
	}
	line("ookla-measured-40.txt", []byte(s.MeasuredOokla(40)))
	geoDir := t.TempDir()
	if err := s.WriteCoverageGeoJSON(geoDir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(geoDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(geoDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		line("geojson/"+e.Name(), data)
	}
	return b.String()
}
