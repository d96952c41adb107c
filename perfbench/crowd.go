package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"github.com/nuwins/cellwheels"
	"github.com/nuwins/cellwheels/internal/core"
	"github.com/nuwins/cellwheels/internal/fleet"
	"github.com/nuwins/cellwheels/internal/fleetsync"
	"github.com/nuwins/cellwheels/internal/obs"
	"github.com/nuwins/cellwheels/internal/unit"
)

// The crowd workload: a metro-scale fleet, crowdSize background UEs per
// operator with the application tests skipped, sweeping load_model over
// the stand-in and the demand backend with two replicates each. Every
// finished run streams through FleetConfig.OnRun into a fleetsync Pusher
// and on to a loopback Collector. One unit of work is one fleet, from
// RunFleet until the collector has folded every run; one job is one fleet
// run, timed between consecutive run completions (the pool runs one at a
// time, so that is the run's own duration).

const (
	crowdKm         = 2
	crowdSize       = 100_000
	crowdReplicates = 2
	// crowdWorkers keeps one fleet run in flight: each run's three lanes
	// already share the CPUs, and sequential runs give each run a
	// well-defined latency and the fleet a steady memory peak.
	crowdWorkers = 1
)

func describeCrowd(o *options) string {
	return fmt.Sprintf("crowd_size %d per operator, skip_apps, %d km from Los Angeles; load_model standin,demand x %d replicates; fleet workers %d",
		crowdSize, crowdKm, crowdReplicates, crowdWorkers)
}

func crowdScenario(o *options) cellwheels.FleetConfig {
	return cellwheels.FleetConfig{
		MasterSeed: o.seed,
		Replicates: crowdReplicates,
		Base:       cellwheels.Config{LimitKm: crowdKm, SkipApps: true, CrowdSize: crowdSize},
		Sweep: []cellwheels.SweepAxis{{
			Field:  "load_model",
			Values: []json.RawMessage{json.RawMessage(`"standin"`), json.RawMessage(`"demand"`)},
		}},
		Workers: crowdWorkers,
	}
}

// crowdRun is one run of the sweep's first cell, the stand-in backend, as
// core sees it.
func crowdRun(seed int64) core.Config {
	return core.Config{
		Seed:      seed,
		Limit:     unit.Meters(crowdKm) * unit.Kilometer,
		SkipApps:  true,
		CrowdSize: crowdSize,
		LoadModel: core.LoadModelStandin,
	}
}

func runCrowd(o *options, tr *tracer) (*outcome, error) {
	out := &outcome{}
	var first string
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < o.seconds; i++ {
		f, err := crowdFleet(o, nil, -1, strconv.Itoa(i), filepath.Join(o.workDir, "fleet-"+strconv.Itoa(i)))
		if err != nil {
			return nil, err
		}
		first = out.addFleet(o, f, i, first)
	}
	out.peakRSSMB = peakRSSMB()
	if tr == nil {
		return out, nil
	}

	m := newLayerMetrics()
	root := tr.begin("crowd.fleet", "traced", -1)
	f, err := crowdFleet(o, tr, root, "traced", filepath.Join(o.workDir, "fleet-traced"))
	tr.end(root, 0)
	if err != nil {
		return nil, err
	}
	out.addFleet(o, f, -1, first)
	m.set("trace.overhead_share", f.wall/median(out.wall))
	m.set("fleet.runs_ok", float64(f.runs-f.runsFailed))
	m.set("fleet.runs_failed", float64(f.runsFailed))
	m.set("fleetsync.push_ms", 1000*median(f.pushes))
	m.set("fleetsync.retries", float64(f.retries))

	// The per-layer replays use the fleet's first run.
	probe := tr.begin("crowd.probe", "probe", -1)
	err = probeLayers(crowdRun(f.firstSeed), probeScope{crowdSize: crowdSize}, m, tr, probe)
	tr.end(probe, 0)
	if err != nil {
		return nil, err
	}
	out.layers = m
	return out, nil
}

// addFleet folds one fleet's operations into the outcome: each run and
// each push is an operation, and a fleet-level check that fails fails
// all of them. It returns the digest later fleets must reproduce.
func (out *outcome) addFleet(o *options, f fleetResult, i int, first string) string {
	ops := f.runs + len(f.pushes)
	out.attempted += ops
	out.setup = append(out.setup, f.setup)
	if i >= 0 {
		out.wall = append(out.wall, f.wall)
		out.latency = append(out.latency, f.runLatency...)
	}
	problem := f.problem
	switch {
	case problem != "":
	case first != "" && f.digest != first:
		problem = fmt.Sprintf("digest %s differs from the first fleet's %s", f.digest, first)
	case !o.checkPin(f.digest):
		problem = fmt.Sprintf("digest %s is not the pinned %s", f.digest, o.pins["crowd"])
	}
	if problem != "" {
		out.fail(ops, "crowd fleet %d: %s", i, problem)
	}
	if first == "" {
		return f.digest
	}
	return first
}

// fleetResult is one crowd fleet's timings, counts and check outcome.
type fleetResult struct {
	setup, wall        float64
	runLatency, pushes []float64 // seconds
	runs, runsFailed   int
	retries            int64
	firstSeed          int64
	digest             string
	problem            string
}

// crowdFleet runs one fleet against a fresh loopback collector and
// checks that the collector's fold equals RunFleet's own result.
func crowdFleet(o *options, tr *tracer, parent int, run, dir string) (fleetResult, error) {
	var res fleetResult
	span := func(name string) func(int64) {
		id := tr.begin(name, run, parent)
		return func(calls int64) { tr.end(id, calls) }
	}
	cfg := crowdScenario(o)
	scenario, err := json.Marshal(cfg)
	if err != nil {
		return res, err
	}
	fp := fmt.Sprintf("%x", sha256.Sum256(scenario))

	// Set-up: the collector and its pusher, then what each fleet run
	// builds before its first tick (timeline plus a campaign with three
	// crowd registries), timed here because RunFleet does it internally.
	settle()
	t0 := time.Now()
	end := span("fleetsync.NewCollector")
	red, err := cellwheels.FleetReducer(cfg)
	if err != nil {
		return res, err
	}
	store, err := fleetsync.OpenStore(filepath.Join(dir, "sync"))
	if err != nil {
		return res, err
	}
	rec := obs.New()
	col, err := fleetsync.NewCollector(fp, red, store, rec)
	if err != nil {
		return res, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	srv := &http.Server{Handler: col.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if srv.Shutdown(ctx) != nil {
			_ = srv.Close() // the deadline passed; drop what is left
		}
		<-served
	}()
	pusher, err := fleetsync.NewPusher(fleetsync.PusherConfig{BaseURL: "http://" + ln.Addr().String(), Scenario: fp, Obs: rec})
	if err != nil {
		return res, err
	}
	end(0)
	end = span("core.NewCampaign")
	run0 := crowdRun(o.seed)
	run0.SharedTimeline = core.PrecomputeTimeline(run0)
	_ = core.NewCampaign(run0)
	end(0)
	res.setup = secondsSince(t0)

	settle()
	t1 := time.Now()
	last := t1
	cfg.OnRun = func(r fleet.RunRecord, m fleet.Metrics) error {
		now := time.Now()
		res.runLatency = append(res.runLatency, now.Sub(last).Seconds())
		last = now
		if res.runs == 0 {
			res.firstSeed = r.Seed
		}
		res.runs++
		if r.Status != "ok" {
			res.runsFailed++
		}
		end := span("fleetsync.Pusher.PushRun")
		t := time.Now()
		err := pusher.PushRun(r, m)
		res.pushes = append(res.pushes, secondsSince(t))
		end(0)
		return err
	}
	end = span("cellwheels.RunFleet")
	fr, err := cellwheels.RunFleet(cfg)
	end(0)
	if err != nil {
		res.problem = "fleet: " + err.Error()
		res.wall = secondsSince(t1)
		return res, nil
	}
	end = span("fleetsync.Collector.Done")
	select {
	case <-col.Done():
	case <-time.After(30 * time.Second):
		res.problem = "collector never folded every run"
	}
	end(0)
	res.wall = secondsSince(t1)
	res.retries = rec.Snapshot().Counters["fleetsync/retries"]

	end = span("bench.check")
	defer end(0)
	if res.runs != fr.Runs() {
		res.problem = fmt.Sprintf("OnRun saw %d runs of %d", res.runs, fr.Runs())
	}
	var want, got bytes.Buffer
	if err := fr.WriteManifest(&want); err != nil {
		return res, err
	}
	folded := col.Result()
	if err := folded.Manifest.WriteJSON(&got); err != nil {
		return res, err
	}
	report := fr.Report()
	switch {
	case res.problem != "":
	case folded.Report() != report:
		res.problem = "collector report differs from RunFleet's"
	case !bytes.Equal(got.Bytes(), want.Bytes()):
		res.problem = "collector manifest differs from RunFleet's"
	}
	h := sha256.New()
	fmt.Fprintf(h, "fleet-report.txt %x\nfleet-manifest.json %x\n", sha256.Sum256([]byte(report)), sha256.Sum256(want.Bytes()))
	res.digest = fmt.Sprintf("%x", h.Sum(nil))
	if res.problem == "" && fr.Failed() > 0 {
		res.problem = fmt.Sprintf("%d of %d fleet runs failed", fr.Failed(), fr.Runs())
	}
	return res, nil
}
