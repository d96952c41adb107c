// Command benchmanifest runs the repo's headline benchmarks — the
// campaign engine, the fleet engine, the crowd step, the report
// assembly, the logsync merge, the per-tick route lookup and UE step
// layers, and the deployment-map build — and writes their figures to a
// machine-readable JSON manifest (BENCH_0014.json in CI). The manifest
// is what lets a reader compare engine cost across commits without
// rerunning anything: ns/op and allocs/op per benchmark, stamped with
// the Go version that produced them.
//
// Usage:
//
//	benchmanifest [-o BENCH_0014.json] [-benchtime 3x] [-bench regexp]
//	benchmanifest -check BENCH_0014.json
//
// With -check, no manifest is written: the benchmarks run fresh (at the
// manifest's recorded benchtime) and the figures are compared against
// the named (checked-in) manifest. The command exits 1 — failing CI —
// when any benchmark regresses more than 15% in ns/op, allocates more
// per op than the manifest records (beyond a 0.1% concurrency-jitter
// floor), or has disappeared from the run. This is the perf half of the repo's ratchet,
// the same shape as the lint baseline: the manifest may only be moved
// deliberately, by rerunning `make bench-manifest` and committing the
// result.
//
// The output is deterministic for a given bench run: entries are sorted
// by name and carry no timestamps.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"github.com/nuwins/cellwheels/internal/atomicio"
)

// Manifest is the file benchmanifest writes.
type Manifest struct {
	Schema    string  `json:"schema"`
	GoVersion string  `json:"go_version"`
	Benchtime string  `json:"benchtime"`
	Entries   []Entry `json:"benchmarks"`
}

// Entry is one benchmark's figures.
type Entry struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// schema versions the manifest format.
const schema = "cellwheels/bench/v1"

// defaultBench selects the headline benchmarks: whole-campaign cost,
// fleet orchestration cost, the crowd engine's step, the paper-report
// assembly, the logsync merge, two layers of the per-tick kernel (geo's
// route lookup, ran's UE step) and the deploy layer's map build (every
// campaign's largest fixed set-up cost), so the trajectory shows which
// layer moved.
const defaultBench = "^(BenchmarkCampaignRun|BenchmarkFleetRun|BenchmarkCrowdStep|BenchmarkReport|BenchmarkLogsyncMerge|BenchmarkRouteAt|BenchmarkUEStep|BenchmarkNewMap)$"

// nsTolerance is the relative ns/op slack -check allows before calling a
// regression: wall-clock figures are noisy across runs and machines, but
// a >15% slide on a headline benchmark is a real change, not jitter.
const nsTolerance = 0.15

// allocSlack returns the allocs/op increase tolerated for a benchmark
// that recorded old allocs. The engines are deterministic, but the
// campaign and fleet worker pools grow a handful of scheduler-dependent
// structures, so multi-million-alloc entries flutter by a few counts
// between runs. 0.1% covers that jitter while staying far below any
// real regression — one new per-tick allocation adds allocations
// proportional to the tick count, thousands of times the slack — and
// integer division keeps small-count benchmarks (crowd step: zero
// allocs) perfectly strict.
func allocSlack(old int64) int64 { return old / 1000 }

func main() {
	var (
		out       = flag.String("o", "BENCH_0014.json", "output manifest path")
		benchtime = flag.String("benchtime", "3x", "go test -benchtime value")
		bench     = flag.String("bench", defaultBench, "go test -bench regexp")
		check     = flag.String("check", "", "compare a fresh run against this manifest and exit 1 on regression (writes nothing)")
	)
	flag.Parse()

	var old Manifest
	if *check != "" {
		data, err := os.ReadFile(*check)
		if err != nil {
			fatal(err)
		}
		if err := json.Unmarshal(data, &old); err != nil {
			fatal(fmt.Errorf("parse %s: %w", *check, err))
		}
		if old.Schema != schema {
			fatal(fmt.Errorf("%s: schema %q, want %q", *check, old.Schema, schema))
		}
		// Rerun exactly what the manifest was built from, so the
		// comparison is one-to-one.
		*benchtime = old.Benchtime
	}

	raw, err := runBenchmarks(*bench, *benchtime)
	if err != nil {
		fatal(err)
	}
	entries, err := parseBench(raw)
	if err != nil {
		fatal(err)
	}
	if len(entries) == 0 {
		fatal(fmt.Errorf("no benchmark lines matched %q — nothing to write", *bench))
	}

	if *check != "" {
		problems := compare(old.Entries, entries)
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "benchmanifest: REGRESSION:", p)
		}
		if len(problems) > 0 {
			fmt.Fprintf(os.Stderr, "benchmanifest: %d regression(s) against %s — if intentional, rerun `make bench-manifest` and commit the new manifest\n", len(problems), *check)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchmanifest: %d benchmarks within budget of %s\n", len(entries), *check)
		return
	}

	m := Manifest{Schema: schema, GoVersion: runtime.Version(), Benchtime: *benchtime, Entries: entries}
	if err := writeManifest(*out, m); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchmanifest: %d benchmarks written to %s\n", len(entries), *out)
}

// compare returns one line per budget violation in fresh relative to the
// checked-in entries. Benchmarks present only in fresh are fine (new
// coverage); benchmarks missing from fresh fail, so the ratchet cannot
// be silently shrunk by deleting a benchmark.
func compare(old, fresh []Entry) []string {
	byName := make(map[string]Entry, len(fresh))
	for _, e := range fresh {
		byName[e.Name] = e
	}
	var problems []string
	for _, o := range old {
		f, ok := byName[o.Name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: in manifest but missing from this run", o.Name))
			continue
		}
		if o.NsPerOp > 0 && f.NsPerOp > o.NsPerOp*(1+nsTolerance) {
			problems = append(problems, fmt.Sprintf("%s: %.0f ns/op, +%.0f%% over manifest's %.0f (budget +%.0f%%)",
				o.Name, f.NsPerOp, (f.NsPerOp/o.NsPerOp-1)*100, o.NsPerOp, nsTolerance*100))
		}
		if f.AllocsPerOp > o.AllocsPerOp+allocSlack(o.AllocsPerOp) {
			problems = append(problems, fmt.Sprintf("%s: %d allocs/op, manifest records %d — a new hot-path allocation",
				o.Name, f.AllocsPerOp, o.AllocsPerOp))
		}
	}
	return problems
}

// runBenchmarks shells out to the go tool; the command's stdout is the
// bench output to parse, stderr passes through for diagnostics.
func runBenchmarks(bench, benchtime string) ([]byte, error) {
	cmd := exec.Command("go", "test", "-run=^$", "-bench="+bench,
		"-benchtime="+benchtime, "-benchmem", "./...")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	return stdout.Bytes(), nil
}

// benchLine matches one `go test -bench` result row:
//
//	BenchmarkCrowdStep/ues=10000-8   20   11656 ns/op   3 B/op   0 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

// cpuSuffix is the trailing -<GOMAXPROCS> the test binary appends; it is
// stripped so manifests from machines with different core counts diff
// cleanly on the benchmark names.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// parseBench extracts the result rows, sorted by name.
func parseBench(out []byte) ([]Entry, error) {
	var entries []Entry
	for _, line := range strings.Split(string(out), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		e := Entry{Name: cpuSuffix.ReplaceAllString(m[1], "")}
		var err error
		if e.Iterations, err = strconv.ParseInt(m[2], 10, 64); err != nil {
			return nil, fmt.Errorf("parse %q: %w", line, err)
		}
		if e.NsPerOp, err = strconv.ParseFloat(m[3], 64); err != nil {
			return nil, fmt.Errorf("parse %q: %w", line, err)
		}
		if m[4] != "" {
			if e.BytesPerOp, err = strconv.ParseInt(m[4], 10, 64); err != nil {
				return nil, fmt.Errorf("parse %q: %w", line, err)
			}
		}
		if m[5] != "" {
			if e.AllocsPerOp, err = strconv.ParseInt(m[5], 10, 64); err != nil {
				return nil, fmt.Errorf("parse %q: %w", line, err)
			}
		}
		entries = append(entries, e)
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	return entries, nil
}

// writeManifest installs the JSON through the shared atomic writer, the
// same pattern the dataset and run-manifest writers use.
func writeManifest(path string, m Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return atomicio.WriteFileBytes(path, 0o644, append(data, '\n'))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmanifest:", err)
	os.Exit(1)
}
