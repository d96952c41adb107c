package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/nuwins/cellwheels/internal/core"
	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/unit"
)

// The route workload: the classic six-handset campaign with the full test
// rotation, static baselines and passive loggers, on the first routeKm of
// the paper's route (it starts at Los Angeles). One unit of work is one
// campaign, from the start of set-up until its last artifact is written.

// routeWorkers runs the three operator lanes one at a time. Wall time
// then tracks the per-tick kernel's CPU time, which is what this workload
// is for; three lanes on two vCPUs made lane phases vary from 0.96 s to
// 1.5 s run to run.
const routeWorkers = 1

func describeRoute(o *options) string {
	return fmt.Sprintf("route slice 0-%g km from Los Angeles; full rotation, static baselines, passive loggers; lane workers %d",
		o.routeKm, routeWorkers)
}

func routeConfig(o *options) core.Config {
	return core.Config{Seed: o.seed, Limit: unit.Meters(o.routeKm) * unit.Kilometer, Workers: routeWorkers}
}

// routeArtifacts are the files one campaign writes, in digest order.
var routeArtifacts = []string{"dataset.json", "report.txt", "throughput.csv", "rtt.csv", "handovers.csv", "appruns.csv"}

func runRoute(o *options, tr *tracer) (*outcome, error) {
	out := &outcome{}
	dir := filepath.Join(o.workDir, "route")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var first string
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < o.seconds; i++ {
		c, err := routeCampaign(o, dir, nil, -1, strconv.Itoa(i))
		if err != nil {
			return nil, err
		}
		out.attempted++
		out.setup = append(out.setup, c.setup)
		out.wall = append(out.wall, c.wall)
		out.latency = append(out.latency, c.wall)
		out.ties.add(c.ties)
		switch {
		case c.problem != "":
			out.fail(1, "route campaign %d: %s", i, c.problem)
		case first != "" && c.digest != first:
			out.fail(1, "route campaign %d: digest %s differs from the first campaign's %s", i, c.digest, first)
		case !o.checkPin(c.digest):
			out.fail(1, "route campaign %d: digest %s is not the pinned %s", i, c.digest, o.pins["route"])
		}
		if first == "" {
			first = c.digest
		}
	}
	out.peakRSSMB = peakRSSMB()
	if tr == nil {
		return out, nil
	}

	// The traced run: one more campaign with spans around each call, then
	// the per-layer replay passes over the same configuration.
	m := newLayerMetrics()
	root := tr.begin("route.campaign", "traced", -1)
	c, err := routeCampaign(o, dir, tr, root, "traced")
	tr.end(root, 0)
	if err != nil {
		return nil, err
	}
	out.attempted++
	if c.problem != "" || c.digest != first {
		out.fail(1, "traced route campaign: %s (digest %s, untraced %s)", c.problem, c.digest, first)
	}
	m.set("trace.overhead_share", c.wall/median(out.wall))
	probe := tr.begin("route.probe", "probe", -1)
	err = probeLayers(routeConfig(o), probeScope{report: true, dataset: true}, m, tr, probe)
	tr.end(probe, 0)
	if err != nil {
		return nil, err
	}
	out.layers = m
	return out, nil
}

// campaignResult is one route campaign's timings and check outcome.
type campaignResult struct {
	setup, wall float64
	digest      string
	ties        figure1Ties
	problem     string // first failed check, empty when all passed
}

// routeCampaign runs one campaign end to end and then checks it: no
// unmatched XCAL files, a Figure 1 that agrees with the dataset, and a
// dataset that decodes and re-encodes to the same bytes. The digest covers
// every artifact, the report with its Figure 1 made canonical.
func routeCampaign(o *options, dir string, tr *tracer, parent int, run string) (campaignResult, error) {
	var res campaignResult
	span := func(name string) func() {
		id := tr.begin(name, run, parent)
		return func() { tr.end(id, 0) }
	}
	cfg := routeConfig(o)

	settle()
	t0 := time.Now()
	end := span("geo.PrecomputeTimeline")
	cfg.SharedTimeline = core.PrecomputeTimeline(cfg)
	end()
	end = span("core.NewCampaign")
	c := core.NewCampaign(cfg)
	end()
	res.setup = secondsSince(t0)

	end = span("core.Campaign.Run")
	raw := c.Run()
	end()
	end = span("logsync.Merge")
	db, rep, err := c.Merge(raw)
	end()
	if err != nil {
		res.problem = "merge: " + err.Error()
		res.wall = secondsSince(t0)
		return res, nil
	}
	end = span("core.Report")
	report := core.Report(db, core.FigureCoverageMaps(db, c.Route(), 100))
	end()
	end = span("dataset.WriteJSON")
	err = writeFile(filepath.Join(dir, "dataset.json"), db.WriteJSON)
	end()
	if err != nil {
		return res, err
	}
	if err := os.WriteFile(filepath.Join(dir, "report.txt"), []byte(report), 0o644); err != nil {
		return res, err
	}
	end = span("dataset.WriteCSV")
	for name, write := range map[string]func(io.Writer) error{
		"throughput.csv": db.WriteThroughputCSV,
		"rtt.csv":        db.WriteRTTCSV,
		"handovers.csv":  db.WriteHandoverCSV,
		"appruns.csv":    db.WriteAppRunCSV,
	} {
		if err := writeFile(filepath.Join(dir, name), write); err != nil {
			return res, err
		}
	}
	end()
	res.wall = secondsSince(t0)

	end = span("bench.check")
	defer end()
	if n := len(rep.UnmatchedFiles); n > 0 {
		res.problem = fmt.Sprintf("%d XCAL files unmatched after sync", n)
	}
	canon, ties, err := canonicalFigure1(report, db)
	res.ties = ties
	if err != nil && res.problem == "" {
		res.problem = "report: " + err.Error()
	}
	res.digest, err = digestFiles(dir, routeArtifacts, map[string][]byte{"report.txt": []byte(canon)})
	if err != nil {
		return res, err
	}
	data, err := os.ReadFile(filepath.Join(dir, "dataset.json"))
	if err != nil {
		return res, err
	}
	if _, p := roundTrip(data); p != "" && res.problem == "" {
		res.problem = p
	}
	return res, nil
}

// roundTrip checks that a dataset decodes and re-encodes to its own bytes,
// and returns it decoded.
func roundTrip(data []byte) (*dataset.DB, string) {
	db, err := dataset.ReadJSON(bytes.NewReader(data))
	if err != nil {
		return nil, "dataset does not decode: " + err.Error()
	}
	var buf bytes.Buffer
	if err := db.WriteJSON(&buf); err != nil {
		return nil, "dataset does not re-encode: " + err.Error()
	}
	if !bytes.Equal(buf.Bytes(), data) {
		return nil, "dataset JSON decode then encode changes its bytes"
	}
	return db, ""
}

// writeFile writes one artifact through a buffer, checking every error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	err = write(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// digestFiles is the sha256 over the named files' own sha256 digests, in
// the given order, so one value pins a whole artifact set. A name in
// replace is digested as the bytes given there instead of its file's.
func digestFiles(dir string, names []string, replace map[string][]byte) (string, error) {
	h := sha256.New()
	for _, n := range names {
		data, ok := replace[n]
		if !ok {
			var err error
			if data, err = os.ReadFile(filepath.Join(dir, n)); err != nil {
				return "", err
			}
		}
		fmt.Fprintf(h, "%s %x\n", n, sha256.Sum256(data))
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}
