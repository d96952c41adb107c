package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"

	"github.com/nuwins/cellwheels/internal/core"
	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
)

// runRouteOnce runs one short route campaign through the whole harness
// and returns its exit code and parsed result line.
func runRouteOnce(t *testing.T, seed int64, pins map[string]string) (int, result) {
	t.Helper()
	o := defaultOptions()
	o.root = ".."
	o.workload = "route"
	o.seed, o.pinSeed = seed, workloads["route"].defaultSeed
	o.seconds = 1 // one campaign: the loop always runs the first
	o.routeKm = 3
	o.pins = pins
	o.workDir = t.TempDir()
	var out bytes.Buffer
	code := execute(&o, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	return code, res
}

func TestWrongPinFailsEveryOperation(t *testing.T) {
	code, res := runRouteOnce(t, workloads["route"].defaultSeed, map[string]string{"route": strings.Repeat("0", 64)})
	if code == 0 {
		t.Errorf("exit code 0 with a wrong pinned digest")
	}
	if res.Correct || res.Attempted < 1 || res.Failed != res.Attempted {
		t.Errorf("wrong pin: correct=%v failed=%d attempted=%d, want every operation failed", res.Correct, res.Failed, res.Attempted)
	}

	// Off the default seed no pin applies, so the same workload passes.
	code, res = runRouteOnce(t, 2, map[string]string{"route": strings.Repeat("0", 64)})
	if code != 0 || !res.Correct || res.Failed != 0 {
		t.Errorf("seed 2: exit %d, correct=%v failed=%d, want a clean pass", code, res.Correct, res.Failed)
	}
	for _, m := range endToEnd {
		if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit || v.Value <= 0 {
			t.Errorf("metric %s = %+v, want a positive value in %s", m.name, v, m.unit)
		}
	}
}

func TestTailOf(t *testing.T) {
	small := []float64{5, 1, 4, 2, 3}
	if v, pct := tailOf(small); v != 3 || pct != 50 {
		t.Errorf("tailOf(5 samples) = %v at p%v, want the median 3 at p50", v, pct)
	}
	var xs []float64
	for i := 40; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	// 40 samples: the 30th smallest has exactly ten above it.
	if v, pct := tailOf(xs); v != 30 || pct != 75 {
		t.Errorf("tailOf(1..40) = %v at p%v, want 30 at p75", v, pct)
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "service.session", Parent: -1, StartNS: 0, EndNS: 100},
		{Name: "serve.job", Parent: 0, StartNS: 10, EndNS: 50},
		{Name: "serve.job", Parent: 0, StartNS: 30, EndNS: 70}, // overlaps the first
		{Name: "serve.submit", Parent: 1, StartNS: 10, EndNS: 20},
	}
	self := tr.selfTime()
	want := map[string]int64{"service": 40, "serve": 30 + 40 + 10}
	for layer, ns := range want {
		if got := self[layer].Nanoseconds(); got != ns {
			t.Errorf("self time of %s = %d ns, want %d", layer, got, ns)
		}
	}
}

// TestDeclarationMatchesHarness keeps BENCHMARK.json and the harness in
// step: the same workloads, and the same metrics with the same units.
func TestDeclarationMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []decl                  `json:"end_to_end"`
		PerLayer  []decl                  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, want)
	}
	check := func(kind string, got []decl, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, harness %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), harness %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestServiceMixReachesDedupAndCache runs one daemon session of the job
// mix against a freshly built wheelsd: every job must end done with its
// checks passing, and the daemon's own counters must show that the mix
// reaches both deduplication and the timeline cache.
func TestServiceMixReachesDedupAndCache(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs wheelsd")
	}
	dir := t.TempDir()
	o := defaultOptions()
	o.root = ".."
	o.workload = "service"
	o.seed, o.pinSeed = 1, workloads["service"].defaultSeed
	o.jobKm = 1
	o.wheelsd = dir + "/wheelsd"
	build := exec.Command("go", "build", "-o", o.wheelsd, "github.com/nuwins/cellwheels/cmd/wheelsd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build wheelsd: %v\n%s", err, out)
	}
	s, err := serviceSession(&o, newTracer(), -1, dir+"/session")
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range s.jobs {
		if j.problem != "" {
			t.Errorf("job %d (%s): %s", i, jobMix[i].kind, j.problem)
		}
	}
	if s.counters["serve/jobs_deduped"] == 0 || s.counters["serve/timeline/hits"] == 0 {
		t.Errorf("daemon counters %v: want dedups and timeline hits", s.counters)
	}
	if s.setup <= 0 || s.wall <= s.setup || s.peakRSSMB <= 0 {
		t.Errorf("session setup %v s, wall %v s, peak RSS %v MB", s.setup, s.wall, s.peakRSSMB)
	}
}

func TestFigure1TiesAreCheckedAndMadeCanonical(t *testing.T) {
	op := radio.Operators()[0]
	// One 5G-mid and one LTE sample in the first bin: a tie.
	db := &dataset.DB{Passive: []dataset.CoverageSample{
		{Op: op, Tech: radio.NRMid, Odometer: 1000},
		{Op: op, Tech: radio.LTE, Odometer: 2000},
	}}
	route := geo.DefaultRoute()
	report := func(m core.CoverageMaps) string { return "Table 1\n" + m.Render() + "Figure 2\n" }

	canon := map[string]bool{}
	for i := 0; i < 40; i++ {
		got, ties, err := canonicalFigure1(report(core.FigureCoverageMaps(db, route, figure1Bins)), db)
		if err != nil {
			t.Fatal(err)
		}
		if ties.tied != 1 {
			t.Fatalf("tied bins = %d, want 1", ties.tied)
		}
		canon[got] = true
	}
	if len(canon) != 1 {
		t.Fatalf("%d canonical reports from one dataset, want 1", len(canon))
	}
	for got := range canon {
		if !strings.Contains(got, "passive [L.") || !strings.HasPrefix(got, "Table 1\n") || !strings.HasSuffix(got, "Figure 2\n") {
			t.Errorf("canonical report does not break the tie towards LTE or loses its other sections:\n%s", got)
		}
	}

	// A bin naming a technology without the most samples fails, and so
	// does a 5G share that is not the strip's own.
	m := core.FigureCoverageMaps(db, route, figure1Bins)
	s := m.Strip[op]
	s[0] = "A" + s[0][1:]
	m.Strip[op] = s
	if _, _, err := canonicalFigure1(report(m), db); err == nil {
		t.Errorf("a bin reading LTE-A passed the check")
	}
	m = core.FigureCoverageMaps(db, route, figure1Bins)
	m.Passive5G[op] = 0.5
	if _, _, err := canonicalFigure1(report(m), db); err == nil {
		t.Errorf("a wrong 5G share passed the check")
	}
}
