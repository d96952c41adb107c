package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/nuwins/cellwheels"
	"github.com/nuwins/cellwheels/internal/core"
	"github.com/nuwins/cellwheels/internal/obs"
	"github.com/nuwins/cellwheels/internal/serve"
	"github.com/nuwins/cellwheels/internal/unit"
)

// The service workload: a real wheelsd daemon over loopback, driven by
// closed-loop clients, each with one keep-alive connection, that submit a
// job, poll it until it is done and then download every artifact. One
// unit of work is one daemon session: exec, the whole job mix, SIGTERM
// drain. Its set-up is the time from exec until the daemon's address file
// appears.

// Job kinds of the mix.
const (
	fresh = "fresh" // a new seed: misses the timeline cache
	dedup = "dedup" // an exact resubmit of an earlier job: deduplicated
	twin  = "twin"  // an earlier job's config with csv on: hits the timeline cache
)

// mixJob is one slot of a session's job sequence; ref is the slot of the
// fresh job a dedup or twin copies.
type mixJob struct {
	kind string
	ref  int
}

// jobMix is every session's job sequence: 8 fresh jobs (67%), 2 dedups
// (17%) and 2 twins (17%), so the latency median sits inside the fresh
// jobs' mode. A twin follows its original closely, well inside the
// daemon's four-entry timeline cache; a dedup copies an older job.
var jobMix = []mixJob{
	{fresh, 0}, {fresh, 1}, {fresh, 2}, {twin, 2}, {fresh, 4}, {fresh, 5},
	{dedup, 1}, {fresh, 7}, {fresh, 8}, {twin, 8}, {fresh, 10}, {dedup, 5},
}

// addrPoll is how often start-up looks for the address file: fine enough
// that the look adds little to a set-up of a few milliseconds.
var addrPoll = syscall.NsecToTimespec(50_000)

// serviceClients is the closed-loop client count: two, one keep-alive
// connection each, and never more than the host has CPUs.
var serviceClients = min(2, runtime.NumCPU())

const (
	daemonWorkers = 2
	pollInterval  = 10 * time.Millisecond
	startProbes   = 10 // start-ups alone before each session
)

func describeService(o *options) string {
	return fmt.Sprintf("wheelsd -workers %d, %d closed-loop clients; per session %s; campaign jobs of %g km from Los Angeles",
		daemonWorkers, serviceClients, mixSummary(), o.jobKm)
}

func mixSummary() string {
	n := map[string]int{}
	for _, j := range jobMix {
		n[j.kind]++
	}
	return fmt.Sprintf("%d jobs: %d fresh, %d dedup, %d csv twin", len(jobMix), n[fresh], n[dedup], n[twin])
}

// jobConfig is slot i's campaign: its own seed for a fresh job, its
// original's config otherwise.
func jobConfig(o *options, i int) cellwheels.Config {
	if jobMix[i].kind != fresh {
		i = jobMix[i].ref
	}
	return cellwheels.Config{Seed: o.seed*1000 + int64(i), LimitKm: o.jobKm}
}

func jobBody(o *options, i int) ([]byte, error) {
	cfg := jobConfig(o, i)
	return json.Marshal(serve.JobSpec{Kind: serve.KindCampaign, Config: &cfg, CSV: jobMix[i].kind == twin})
}

func runService(o *options, tr *tracer) (*outcome, error) {
	if o.wheelsd == "" {
		return nil, fmt.Errorf("the service workload needs -wheelsd")
	}
	out := &outcome{}
	// Warm-up, untimed: a run's first start-up took about 3.4 ms where
	// the rest took about 2.4.
	if err := probeStartups(o, &outcome{}, "warm"); err != nil {
		return nil, err
	}
	var first string
	var rss []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < o.seconds; i++ {
		if err := probeStartups(o, out, strconv.Itoa(i)); err != nil {
			return nil, err
		}
		s, err := serviceSession(o, nil, -1, filepath.Join(o.workDir, "session-"+strconv.Itoa(i)))
		if err != nil {
			return nil, err
		}
		first = out.addSession(o, s, i, first)
		out.wall = append(out.wall, s.wall)
		rss = append(rss, s.peakRSSMB)
		for _, j := range s.jobs {
			out.latency = append(out.latency, j.latency)
		}
	}
	out.peakRSSMB = median(rss)
	if tr == nil {
		return out, nil
	}

	m := newLayerMetrics()
	root := tr.begin("service.session", "traced", -1)
	s, err := serviceSession(o, tr, root, filepath.Join(o.workDir, "session-traced"))
	tr.end(root, 0)
	if err != nil {
		return nil, err
	}
	out.addSession(o, s, -1, first)
	m.set("trace.overhead_share", s.wall/median(out.wall))
	var submit, queued, ran, download []float64
	for i, j := range s.jobs {
		submit = append(submit, 1000*j.submit)
		download = append(download, j.downloads...)
		if jobMix[i].kind != dedup {
			queued = append(queued, j.queueWait)
			ran = append(ran, j.run)
		}
	}
	for i := range download {
		download[i] *= 1000
	}
	m.set("serve.submit_ms", median(submit))
	m.set("serve.queue_wait_s", median(queued))
	m.set("serve.job_run_s", median(ran))
	m.set("serve.download_ms", median(download))
	m.set("serve.dedup_hits", float64(s.counters["serve/jobs_deduped"]))
	hits, misses := s.counters["serve/timeline/hits"], s.counters["serve/timeline/misses"]
	m.set("serve.timeline_hits", float64(hits))
	m.set("serve.timeline_misses", float64(misses))
	if hits+misses > 0 {
		m.set("serve.timeline_hit_ratio", float64(hits)/float64(hits+misses))
	}

	// The per-layer replays use the session's first job, in process.
	cfg := jobConfig(o, 0)
	probe := tr.begin("service.probe", "probe", -1)
	err = probeLayers(core.Config{Seed: cfg.Seed, Limit: unit.Meters(cfg.LimitKm) * unit.Kilometer},
		probeScope{report: true, dataset: true}, m, tr, probe)
	tr.end(probe, 0)
	if err != nil {
		return nil, err
	}
	out.layers = m
	return out, nil
}

// probeStartups adds set-up samples from start-ups alone: one per session
// would be few. They run before each session, so that the median spans the
// whole run rather than one moment of it. Each waits for the daemon to
// answer a request before stopping it, as a client would: wheelsd
// publishes its address before it installs its SIGTERM handler, so an
// earlier SIGTERM kills it.
func probeStartups(o *options, out *outcome, session string) error {
	defer http.DefaultClient.CloseIdleConnections()
	for k := 0; k < startProbes; k++ {
		d, err := startDaemon(o, filepath.Join(o.workDir, fmt.Sprintf("start-%s-%d", session, k)))
		if err != nil {
			return err
		}
		out.setup = append(out.setup, d.setup)
		_, err = get(http.DefaultClient, "http://"+d.addr+"/v1/jobs")
		if err == nil {
			_, err = d.drain()
		}
		d.kill()
		if err != nil {
			return err
		}
	}
	return nil
}

// addSession folds one session's jobs into the outcome: each job is an
// operation. A session whose digest differs from the first session's or
// from the pin fails every job. It returns the digest later sessions must
// reproduce.
func (out *outcome) addSession(o *options, s sessionResult, i int, first string) string {
	out.attempted += len(s.jobs)
	out.setup = append(out.setup, s.setup)
	out.ties.add(s.ties)
	switch {
	case first != "" && s.digest != first:
		out.fail(len(s.jobs), "service session %d: digest %s differs from the first session's %s", i, s.digest, first)
	case !o.checkPin(s.digest):
		out.fail(len(s.jobs), "service session %d: digest %s is not the pinned %s", i, s.digest, o.pins["service"])
	default:
		for k, j := range s.jobs {
			if j.problem != "" {
				out.fail(1, "service session %d job %d (%s): %s", i, k, jobMix[k].kind, j.problem)
			}
		}
	}
	if first == "" {
		return s.digest
	}
	return first
}

// sessionResult is one daemon session's timings, jobs and counters.
type sessionResult struct {
	setup, wall float64
	peakRSSMB   float64
	jobs        []jobResult
	counters    map[string]int64
	digest      string
	ties        figure1Ties
}

// jobResult is one job as its client saw it.
type jobResult struct {
	latency               float64 // submit until the last artifact is downloaded
	submit                float64 // the POST alone
	queueWait             float64 // submit until the job was first seen past queued
	run                   float64 // first seen running until first seen done
	downloads             []float64
	dataset, report       []byte
	datasetSum, reportSum [32]byte // the report's with its Figure 1 made canonical
	problem               string
}

// serviceSession starts a daemon, runs the job mix through it, drains it
// with SIGTERM and checks everything the clients downloaded.
func serviceSession(o *options, tr *tracer, parent int, dir string) (sessionResult, error) {
	res := sessionResult{jobs: make([]jobResult, len(jobMix))}
	bodies := make([][]byte, len(jobMix))
	for i := range jobMix {
		var err error
		if bodies[i], err = jobBody(o, i); err != nil {
			return res, err
		}
	}

	execSpan := tr.begin("serve.exec", "session", parent)
	t0 := time.Now()
	d, err := startDaemon(o, dir)
	if err != nil {
		return res, err
	}
	defer d.kill()
	res.setup = d.setup
	tr.end(execSpan, 0)
	base := "http://" + d.addr

	var next atomic.Int64
	var last atomic.Int64 // latest download end, ns since exec
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{
				Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
				Timeout:   60 * time.Second,
			}
			defer client.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobMix) {
					return
				}
				j := runJob(client, base, bodies[i], tr, parent, strconv.Itoa(i))
				res.jobs[i] = j
				for {
					prev := last.Load()
					now := time.Since(t0).Nanoseconds()
					if now <= prev || last.CompareAndSwap(prev, now) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	res.wall = time.Duration(last.Load()).Seconds()

	drain := tr.begin("serve.drain", "session", parent)
	rss, err := d.drain()
	tr.end(drain, 0)
	if err != nil {
		return res, err
	}
	res.peakRSSMB = rss
	b, err := os.ReadFile(d.metrics)
	if err != nil {
		return res, err
	}
	man, err := obs.ReadManifest(bytes.NewReader(b))
	if err != nil {
		return res, fmt.Errorf("wheelsd metrics: %w", err)
	}
	res.counters = man.Counters

	check := tr.begin("bench.check", "session", parent)
	res.ties = checkJobs(res.jobs)
	h := sha256.New()
	for i, j := range res.jobs {
		if jobMix[i].kind == fresh {
			fmt.Fprintf(h, "%d dataset.json %x report.txt %x\n", i, j.datasetSum, j.reportSum)
		}
	}
	res.digest = fmt.Sprintf("%x", h.Sum(nil))
	tr.end(check, 0)
	return res, nil
}

// checkJobs applies the per-job checks once the session's clock has
// stopped: a fresh job's dataset decodes and re-encodes to its own bytes
// and its report's Figure 1 agrees with that dataset, and a dedup's or
// twin's dataset is byte-identical to its original's. It returns the
// Figure 1 ties it counted.
func checkJobs(jobs []jobResult) figure1Ties {
	var ties figure1Ties
	for i := range jobs {
		j := &jobs[i]
		if j.problem != "" {
			continue
		}
		switch jobMix[i].kind {
		case fresh:
			db, p := roundTrip(j.dataset)
			if p != "" {
				j.problem = p
				break
			}
			canon, t, err := canonicalFigure1(string(j.report), db)
			ties.add(t)
			if err != nil {
				j.problem = "report: " + err.Error()
				break
			}
			j.reportSum = sha256.Sum256([]byte(canon))
		default:
			if j.datasetSum != jobs[jobMix[i].ref].datasetSum {
				j.problem = fmt.Sprintf("dataset.json differs from job %d's", jobMix[i].ref)
			}
		}
		j.dataset, j.report = nil, nil
	}
	return ties
}

// daemon is one running wheelsd process.
type daemon struct {
	cmd     *exec.Cmd
	log     *os.File
	exited  chan error // receives cmd.Wait's result once
	done    bool       // exited has been received from
	addr    string
	metrics string  // where the daemon writes its obs manifest on exit
	setup   float64 // seconds from exec until the address file appeared
}

// startDaemon execs wheelsd on a loopback port with its state under dir
// and waits until it publishes its address.
func startDaemon(o *options, dir string) (*daemon, error) {
	data := filepath.Join(dir, "data")
	if err := os.MkdirAll(data, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "wheelsd.log"))
	if err != nil {
		return nil, err
	}
	d := &daemon{log: logf, exited: make(chan error, 1), metrics: filepath.Join(dir, "wheelsd-metrics.json")}
	d.cmd = exec.Command(o.wheelsd, "-addr", "127.0.0.1:0", "-data", data,
		"-workers", strconv.Itoa(daemonWorkers), "-metrics", d.metrics)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		_ = logf.Close() // nothing was written to it
		return nil, fmt.Errorf("start wheelsd: %w", err)
	}
	addChild(d.cmd)
	go func() { d.exited <- d.cmd.Wait() }()

	addrFile := filepath.Join(data, "wheelsd-addr.txt")
	deadline := t0.Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			d.setup = secondsSince(t0)
			d.addr = strings.TrimSpace(string(b))
			return d, nil
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("wheelsd did not publish its address within 30 s (see %s)", logf.Name())
		}
		select {
		case err := <-d.exited:
			d.done = true
			d.kill()
			return nil, fmt.Errorf("wheelsd exited before publishing its address: %v (see %s)", err, logf.Name())
		default:
		}
		// time.Sleep would round this up to about a millisecond, the Go
		// runtime's timer resolution in an otherwise idle process.
		_ = syscall.Nanosleep(&addrPoll, nil)
	}
}

// drain stops the daemon the way an operator does, with SIGTERM, waits
// for it to exit cleanly and returns its peak resident memory in MB.
func (d *daemon) drain() (float64, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, fmt.Errorf("signal wheelsd: %w", err)
	}
	var err error
	select {
	case err = <-d.exited:
		d.done = true
	case <-time.After(60 * time.Second):
		return 0, fmt.Errorf("wheelsd did not drain within 60 s")
	}
	d.kill()
	if err != nil {
		return 0, fmt.Errorf("wheelsd exited badly: %v (see %s)", err, d.log.Name())
	}
	ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, fmt.Errorf("wheelsd: no resource usage")
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// kill ends the daemon if it is still running and waits for it; it is
// safe to call more than once.
func (d *daemon) kill() {
	if !d.done {
		_ = d.cmd.Process.Kill()
		<-d.exited
		d.done = true
	}
	dropChild(d.cmd)
	_ = d.log.Close() // the daemon wrote the log; this handle only passed it on
}

// runJob submits one job, polls it until it ends, then downloads every
// artifact it lists. Failures are recorded on the result, not returned:
// a failed job is a failed operation, not a broken benchmark.
func runJob(client *http.Client, base string, body []byte, tr *tracer, parent int, run string) jobResult {
	var j jobResult
	jobSpan := tr.begin("serve.job", run, parent)
	defer tr.end(jobSpan, 0)

	t0 := time.Now()
	sp := tr.begin("serve.submit", run, jobSpan)
	var st serve.JobStatus
	code, err := doJSON(client, http.MethodPost, base+"/v1/jobs", body, &st)
	j.submit = secondsSince(t0)
	tr.end(sp, 0)
	if err != nil || (code != http.StatusCreated && code != http.StatusOK) {
		j.problem = fmt.Sprintf("submit: status %d, %v", code, err)
		return j
	}

	sp = tr.begin("serve.poll", run, jobSpan)
	var running time.Time
	polls := int64(0)
	for st.State == serve.StateQueued || st.State == serve.StateRunning {
		if st.State == serve.StateRunning && running.IsZero() {
			running = time.Now()
		}
		time.Sleep(pollInterval)
		polls++
		if code, err = doJSON(client, http.MethodGet, base+"/v1/jobs/"+st.ID, nil, &st); err != nil || code != http.StatusOK {
			j.problem = fmt.Sprintf("poll: status %d, %v", code, err)
			tr.end(sp, polls)
			return j
		}
	}
	done := time.Now()
	tr.end(sp, polls)
	if running.IsZero() {
		running = done
	}
	j.queueWait = running.Sub(t0).Seconds()
	j.run = done.Sub(running).Seconds()
	if st.State != serve.StateDone {
		j.problem = fmt.Sprintf("job ended %s: %s", st.State, st.Error)
		return j
	}

	sp = tr.begin("serve.download", run, jobSpan)
	defer tr.end(sp, int64(len(st.Artifacts)))
	for _, name := range st.Artifacts {
		t := time.Now()
		b, err := get(client, base+"/v1/jobs/"+st.ID+"/artifacts/"+name)
		j.downloads = append(j.downloads, secondsSince(t))
		if err != nil {
			j.problem = fmt.Sprintf("download %s: %v", name, err)
			return j
		}
		switch name {
		case "dataset.json":
			j.dataset, j.datasetSum = b, sha256.Sum256(b)
		case "report.txt":
			j.report = b
		}
	}
	j.latency = secondsSince(t0)
	if j.dataset == nil {
		j.problem = "no dataset.json among the artifacts"
	}
	return j
}

// doJSON makes one request and decodes a JSON answer into v.
func doJSON(client *http.Client, method, url string, body []byte, v any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() { _ = resp.Body.Close() }() // read to the end below
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, fmt.Errorf("%s", strings.TrimSpace(string(b)))
	}
	return resp.StatusCode, json.Unmarshal(b, v)
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }() // read to the end below
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, nil
}
