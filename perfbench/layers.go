package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"github.com/nuwins/cellwheels/internal/core"
	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/deploy"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/ran"
	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/transport"
	"github.com/nuwins/cellwheels/internal/ue"
	"github.com/nuwins/cellwheels/internal/unit"
	"github.com/nuwins/cellwheels/internal/xcal"
)

// endToEnd and perLayer are the metric names and units BENCHMARK.json
// declares, in its order. Every traced run reports every per-layer
// metric; one a workload does not exercise reads 0.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"job_latency_p50_s", "s"},
	{"job_latency_tail_s", "s"},
}

var perLayer = []struct{ name, unit string }{
	{"geo.timeline_s", "s"},
	{"geo.timeline_ticks", "count"},
	{"geo.cursor_ns_per_tick", "ns"},
	{"deploy.newmap_s", "s"},
	{"core.new_campaign_s", "s"},
	{"core.run_s", "s"},
	{"core.run_ns_per_lane_tick", "ns"},
	{"ran.step_ns", "ns"},
	{"ran.handovers", "count"},
	{"transport.flow_step_ns", "ns"},
	{"xcal.observe_ns", "ns"},
	{"logsync.merge_s", "s"},
	{"logsync.merge_alloc_mb", "MB"},
	{"logsync.matched", "count"},
	{"logsync.unmatched", "count"},
	{"core.report_s", "s"},
	{"core.report_alloc_mb", "MB"},
	{"dataset.encode_json_s", "s"},
	{"dataset.encode_csv_s", "s"},
	{"dataset.decode_json_s", "s"},
	{"dataset.json_mb", "MB"},
	{"ue.advance_ns_per_event", "ns"},
	{"ue.events", "count"},
	{"ue.measurements", "count"},
	{"fleet.runs_ok", "count"},
	{"fleet.runs_failed", "count"},
	{"fleetsync.push_ms", "ms"},
	{"fleetsync.retries", "count"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_wait_s", "s"},
	{"serve.job_run_s", "s"},
	{"serve.download_ms", "ms"},
	{"serve.dedup_hits", "count"},
	{"serve.timeline_hits", "count"},
	{"serve.timeline_misses", "count"},
	{"serve.timeline_hit_ratio", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// layerMetrics is a traced run's per-layer table, every metric present.
type layerMetrics map[string]metric

func newLayerMetrics() layerMetrics {
	m := layerMetrics{}
	for _, d := range perLayer {
		m[d.name] = metric{0, d.unit}
	}
	return m
}

func (m layerMetrics) set(name string, v float64) {
	d, ok := m[name]
	if !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	d.Value = v
	m[name] = d
}

// probeScope says which layers past the per-tick kernel a workload's
// units of work reach: fleet runs merge but never render a report or
// encode a dataset, and only crowd runs drive the ue registry.
type probeScope struct {
	report    bool
	dataset   bool
	crowdSize int
}

// probeLayers replays one unit of the workload's work through each
// layer's public calls, one layer per pass, timing each pass. The
// per-tick passes replay the config's recorded drive ticks: the pass's
// time divided by its number of calls is the layer's cost per call.
func probeLayers(cfg core.Config, scope probeScope, m layerMetrics, tr *tracer, parent int) error {
	const run = "probe"
	span := func(name string) func(calls int64) {
		id := tr.begin(name, run, parent)
		return func(calls int64) { tr.end(id, calls) }
	}

	end := span("geo.PrecomputeTimeline")
	t := time.Now()
	tl := core.PrecomputeTimeline(cfg)
	m.set("geo.timeline_s", secondsSince(t))
	end(0)
	m.set("geo.timeline_ticks", float64(tl.Ticks()))

	ticks := make([]geo.TickState, 0, tl.Ticks())
	end = span("geo.Cursor.Next")
	t = time.Now()
	cur := tl.Cursor()
	for ts, ok := cur.Next(); ok; ts, ok = cur.Next() {
		ticks = append(ticks, ts)
	}
	elapsed := time.Since(t)
	end(int64(len(ticks)))
	if len(ticks) == 0 {
		return fmt.Errorf("probe: empty timeline")
	}
	m.set("geo.cursor_ns_per_tick", perCall(elapsed, int64(len(ticks))))

	route := geo.DefaultRoute()
	rng := simrand.New(cfg.Seed)
	maps := map[radio.Operator]*deploy.Map{}
	end = span("deploy.NewMap")
	t = time.Now()
	for _, op := range radio.Operators() {
		maps[op] = deploy.NewMap(op, route, rng)
	}
	m.set("deploy.newmap_s", secondsSince(t))
	end(int64(len(maps)))

	withTL := cfg
	withTL.SharedTimeline = tl
	end = span("core.NewCampaign")
	t = time.Now()
	c := core.NewCampaign(withTL)
	m.set("core.new_campaign_s", secondsSince(t))
	end(0)

	end = span("core.Campaign.Run")
	t = time.Now()
	raw := c.Run()
	elapsed = time.Since(t)
	end(0)
	m.set("core.run_s", elapsed.Seconds())
	m.set("core.run_ns_per_lane_tick", perCall(elapsed, int64(len(ticks)*len(radio.Operators()))))

	if err := probeKernel(ticks, maps, cfg.Seed, m, span); err != nil {
		return err
	}

	end = span("logsync.Merge")
	a := allocMB()
	t = time.Now()
	db, rep, err := c.Merge(raw)
	m.set("logsync.merge_s", secondsSince(t))
	m.set("logsync.merge_alloc_mb", allocMB()-a)
	end(0)
	if err != nil {
		return fmt.Errorf("probe: merge: %w", err)
	}
	m.set("logsync.matched", float64(rep.Matched))
	m.set("logsync.unmatched", float64(len(rep.UnmatchedFiles)))

	if scope.report {
		end = span("core.Report")
		a = allocMB()
		t = time.Now()
		_ = core.Report(db, core.FigureCoverageMaps(db, c.Route(), 100))
		m.set("core.report_s", secondsSince(t))
		m.set("core.report_alloc_mb", allocMB()-a)
		end(0)
	}
	if scope.dataset {
		if err := probeDataset(db, m, span); err != nil {
			return err
		}
	}
	if scope.crowdSize > 0 {
		probeCrowd(cfg, scope.crowdSize, ticks, maps, route, m, span)
	}
	return nil
}

// probeKernel replays the ticks through each operator's handset: a
// ran.UE.Step pass recording the link states, then a transport.Flow.Step
// pass and an xcal.Recorder.Observe pass over those states.
func probeKernel(ticks []geo.TickState, maps map[radio.Operator]*deploy.Map, seed int64, m layerMetrics, span func(string) func(int64)) error {
	var stepT, flowT, obsT time.Duration
	var calls int64
	handovers := 0
	states := make([]ran.LinkState, len(ticks))
	delivered := make([]unit.Bytes, len(ticks))
	for _, op := range radio.Operators() {
		src := simrand.New(seed).Fork("probe/" + op.Short())
		u := ran.NewUE(ran.UEConfig{Op: op, Map: maps[op]}, src)
		// Steady downlink traffic, as during a throughput test, so the
		// elevation policy serves from the 5G layers where they exist.
		u.SetTraffic(deploy.HeavyDL, ticks[0].Time, ticks[0].Waypoint)

		end := span("ran.UE.Step")
		t := time.Now()
		for i, ts := range ticks {
			states[i] = u.Step(ts.Time, ts.Waypoint, ts.Speed.MPH(), core.Tick)
		}
		stepT += time.Since(t)
		end(int64(len(ticks)))
		handovers += u.HandoverCount()

		f := transport.NewFlow(src.Fork("flow"))
		end = span("transport.Flow.Step")
		t = time.Now()
		for i := range ticks {
			delivered[i] = f.Step(core.Tick, states[i].CapacityDL, 40*time.Millisecond, 0).Delivered
		}
		flowT += time.Since(t)
		end(int64(len(ticks)))

		rec := xcal.NewRecorder(op)
		rec.StartFile("probe", ticks[0].Time, ticks[0].Waypoint.Timezone)
		end = span("xcal.Recorder.Observe")
		t = time.Now()
		for i, ts := range ticks {
			rec.Observe(core.Tick, states[i], ts.Waypoint, ts.Speed.MPH(), delivered[i])
		}
		obsT += time.Since(t)
		end(int64(len(ticks)))
		if f := rec.CloseFile(); len(f.Rows) == 0 {
			return fmt.Errorf("probe: xcal recorded no rows for %s", op.Short())
		}
		calls += int64(len(ticks))
	}
	m.set("ran.step_ns", perCall(stepT, calls))
	m.set("ran.handovers", float64(handovers))
	m.set("transport.flow_step_ns", perCall(flowT, calls))
	m.set("xcal.observe_ns", perCall(obsT, calls))
	return nil
}

// probeDataset times the dataset codecs on the probe's merged database.
func probeDataset(db *dataset.DB, m layerMetrics, span func(string) func(int64)) error {
	var buf bytes.Buffer
	end := span("dataset.WriteJSON")
	t := time.Now()
	if err := db.WriteJSON(&buf); err != nil {
		return fmt.Errorf("probe: encode json: %w", err)
	}
	m.set("dataset.encode_json_s", secondsSince(t))
	end(0)
	m.set("dataset.json_mb", float64(buf.Len())/(1<<20))

	end = span("dataset.WriteCSV")
	t = time.Now()
	for _, write := range []func(io.Writer) error{db.WriteThroughputCSV, db.WriteRTTCSV, db.WriteHandoverCSV, db.WriteAppRunCSV} {
		if err := write(io.Discard); err != nil {
			return fmt.Errorf("probe: encode csv: %w", err)
		}
	}
	m.set("dataset.encode_csv_s", secondsSince(t))
	end(4)

	end = span("dataset.ReadJSON")
	t = time.Now()
	if _, err := dataset.ReadJSON(&buf); err != nil {
		return fmt.Errorf("probe: decode json: %w", err)
	}
	m.set("dataset.decode_json_s", secondsSince(t))
	end(0)
	return nil
}

// probeCrowd replays the ticks' instants through one crowd registry per
// operator, built the way a crowd campaign builds its lanes' registries.
func probeCrowd(cfg core.Config, size int, ticks []geo.TickState, maps map[radio.Operator]*deploy.Map, route *geo.Route, m layerMetrics, span func(string) func(int64)) {
	var advT time.Duration
	var events, measures int64
	for _, op := range radio.Operators() {
		end := span("ue.NewRegistry")
		reg := ue.NewRegistry(ue.Config{
			Op:           op,
			Map:          maps[op],
			Route:        route,
			Size:         size,
			Span:         cfg.Limit,
			Seed:         simrand.New(cfg.Seed).Fork("crowd").Fork("op=" + op.Short()).Int63(),
			Tick:         core.Tick,
			HorizonTicks: int64(len(ticks)),
			MeasureSlots: 120,
			MeasureTicks: 380, // an 8 s download, an 8 s upload and a 3 s ping burst
			MeasureUnits: 30,
		})
		end(0)
		end = span("ue.Registry.Advance")
		t := time.Now()
		for _, ts := range ticks {
			reg.Advance(ts.Time)
		}
		advT += time.Since(t)
		end(int64(len(ticks)))
		events += reg.EventsProcessed()
		measures += reg.MeasurementsStarted()
	}
	m.set("ue.advance_ns_per_event", perCall(advT, events))
	m.set("ue.events", float64(events))
	m.set("ue.measurements", float64(measures))
}

// perCall is a pass's time per call in nanoseconds.
func perCall(d time.Duration, calls int64) float64 {
	if calls == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(calls)
}
