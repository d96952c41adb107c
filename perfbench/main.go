// Command perfbench is the cellwheels benchmark: one process that runs a
// named workload against the public surfaces of the simulator for a fixed
// number of seconds, checks every output it produces, and prints each
// end-to-end metric by name with its unit. With -trace 1 it instead times
// the calls into each layer and prints the per-layer metrics. The last
// line of standard output is always one JSON object:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds it and the wheelsd daemon first:
//
//	bash perfbench/run.sh --workload route --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Workloads and their seeds. The default seed is the one whose output
// digests are pinned in pins.json; the held-out seed is never used while
// tuning and is where a later performance claim must also hold.
var workloads = map[string]struct {
	run            func(*options, *tracer) (*outcome, error)
	defaultSeed    int64
	heldOutSeed    int64
	describeInputs func(*options) string
}{
	"route":   {runRoute, 1, 9001, describeRoute},
	"crowd":   {runCrowd, 1, 9001, describeCrowd},
	"service": {runService, 1, 9001, describeService},
}

// watchdog bounds a whole invocation: a hung daemon or collector must not
// keep the benchmark alive past the time its caller allows.
const watchdog = 170 * time.Second

// options is one invocation's configuration. The campaign lengths default
// to the benchmark's fixed inputs; tests shrink them.
type options struct {
	root     string
	wheelsd  string
	workload string
	seed     int64
	pinSeed  int64 // the workload's default seed, whose digests are pinned
	seconds  time.Duration
	trace    bool
	pins     map[string]string
	workDir  string

	routeKm float64
	jobKm   float64
}

func defaultOptions() options {
	return options{routeKm: 200, jobKm: 10}
}

// outcome is what a workload hands back: operation counts for the
// correctness gate, the raw per-operation samples behind the end-to-end
// metrics, and (traced runs only) the per-layer metrics.
type outcome struct {
	attempted int
	failed    int
	setup     []float64 // seconds, one per set-up
	wall      []float64 // seconds, one per unit of work
	latency   []float64 // seconds, one per job
	peakRSSMB float64
	ties      figure1Ties
	layers    map[string]metric
}

// fail records n failed operations and says why on standard error.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout)) }

func realMain(args []string, stdout io.Writer) int {
	o := defaultOptions()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.root, "root", ".", "cellwheels source tree (the repository root)")
	fs.StringVar(&o.wheelsd, "wheelsd", "", "wheelsd binary built from -root (service workload)")
	fs.StringVar(&o.workload, "workload", "", "route, crowd or service")
	seed := fs.Int64("seed", -1, "workload seed (default: the workload's pinned default seed)")
	seconds := fs.Int("seconds", 20, "how long the run measures, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (want route, crowd or service)\n", o.workload)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	o.seed, o.pinSeed = *seed, w.defaultSeed
	if o.seed < 0 {
		o.seed = w.defaultSeed
	}
	o.seconds = time.Duration(*seconds) * time.Second
	o.trace = *trace == 1
	pins, err := readPins(filepath.Join(o.root, "perfbench", "pins.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	o.pins = pins
	if _, err := os.Stat(filepath.Join(o.root, "go.mod")); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: -root is not the cellwheels source tree:", err)
		return 2
	}
	workRoot := filepath.Join(o.root, ".bench_build", "work")
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	work, err := os.MkdirTemp(workRoot, o.workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(work)
	o.workDir = work

	stop := time.AfterFunc(watchdog, func() {
		killChildren()
		fmt.Fprintf(os.Stderr, "perfbench: watchdog: still running after %s; giving up\n", watchdog)
		os.Exit(3)
	})
	defer stop.Stop()

	return execute(&o, stdout)
}

// execute runs the chosen workload and prints its result; the exit code
// is 0 only when every check passed, 2 when the workload could not run.
func execute(o *options, stdout io.Writer) int {
	w := workloads[o.workload]
	st := hostStamp(o, w.describeInputs(o))
	stampJSON, _ := json.Marshal(st)
	fmt.Fprintf(stdout, "stamp %s\n", stampJSON)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	out, err := w.run(o, tr)
	killChildren()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if out.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		return 2
	}

	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	if o.trace {
		res.Metrics = out.layers
		if err := tr.write(filepath.Join(o.root, ".bench_build", "traces"), o.workload, o.seed, st); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		tr.printSelfTime(stdout)
	} else {
		tail, pct := tailOf(out.latency)
		values := map[string]float64{
			"setup_s":            median(out.setup),
			"wall_s":             median(out.wall),
			"peak_rss_mb":        out.peakRSSMB,
			"job_latency_p50_s":  median(out.latency),
			"job_latency_tail_s": tail,
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{values[d.name], d.unit}
		}
		fmt.Fprintf(stdout, "samples setup_s %s\nsamples wall_s %s\nsamples job_latency_s %s\n",
			fmtSamples(out.setup), fmtSamples(out.wall), fmtSamples(out.latency))
		fmt.Fprintf(stdout, "tail is p%.1f of %d jobs\n", pct, len(out.latency))
	}
	printMetrics(stdout, res.Metrics)
	fmt.Fprintf(stdout, "failed_share %.4f (%d of %d operations)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	fmt.Fprintf(stdout, "figure1_ties %d tied bins, %d rendered off technology order (known defect: ties follow map order)\n",
		out.ties.tied, out.ties.offOrder)

	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func fmtSamples(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-28s %16.6f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// readPins loads the workload → digest map checked on default seeds.
func readPins(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pinned digests: %w", err)
	}
	var pins map[string]string
	if err := json.Unmarshal(data, &pins); err != nil {
		return nil, fmt.Errorf("pinned digests %s: %w", path, err)
	}
	return pins, nil
}

// checkPin reports whether digest is acceptable for this run: any digest
// is, off the default seed; on it, only the pinned one.
func (o *options) checkPin(digest string) bool {
	if o.seed != o.pinSeed {
		return true
	}
	return o.pins[o.workload] == digest
}

// stamp identifies the host and the inputs of a result, so figures from
// different machines or inputs are never compared silently.
type stamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Default    int64  `json:"default_seed"`
	HeldOut    int64  `json:"held_out_seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Inputs     string `json:"inputs"`
}

func hostStamp(o *options, inputs string) stamp {
	w := workloads[o.workload]
	return stamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitOf(o.root),
		Source:     sourceDigest(o.root),
		Workload:   o.workload,
		Seed:       o.seed,
		Default:    w.defaultSeed,
		HeldOut:    w.heldOutSeed,
		Seconds:    int(o.seconds / time.Second),
		Trace:      o.trace,
		Inputs:     inputs,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest identifies the program's source where no commit does: the
// sha256 over every Go source and go.mod file of the tree, by path.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path) // path is under root
		fmt.Fprintf(h, "%s %x\n", filepath.ToSlash(rel), sha256.Sum256(data))
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// commitOf names the source tree's commit, or says that the tree is not a
// git checkout (an exported tree carries no history).
func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// Child processes (wheelsd daemons) are registered so the watchdog and
// every exit path can stop them; nothing outlives the benchmark.
var (
	childMu  sync.Mutex
	children = map[*exec.Cmd]bool{}
)

func addChild(c *exec.Cmd) {
	childMu.Lock()
	children[c] = true
	childMu.Unlock()
}

func dropChild(c *exec.Cmd) {
	childMu.Lock()
	delete(children, c)
	childMu.Unlock()
}

func killChildren() {
	childMu.Lock()
	defer childMu.Unlock()
	// Only kill: the goroutine that started each child is the one that
	// waits for it, and returns once the kill lands.
	for c := range children {
		_ = c.Process.Kill()
	}
}
