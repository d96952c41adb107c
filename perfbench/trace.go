package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one unit of work (a
// campaign, a fleet, a job) share a run id; parent is the index of the
// enclosing span, -1 for a root. Calls counts the public calls a span
// covers when it times a whole replay pass rather than a single call.
type span struct {
	Name    string `json:"name"`
	Run     string `json:"run"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Calls   int64  `json:"calls,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the end-to-end runs measure with tracing off.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name, run string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Run: run, Parent: parent, StartNS: now, EndNS: -1})
	return len(t.spans) - 1
}

// end closes span id, recording how many calls it covered (0 for one).
func (t *tracer) end(id int, calls int64) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.spans[id].Calls = calls
	t.mu.Unlock()
}

// layerOf names a span's layer: the package prefix of its name.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTime sums, per layer, each span's duration minus the part of it
// that its children cover. Children of one span may overlap (concurrent
// clients), so their intervals are merged before subtracting.
func (t *tracer) selfTime() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 && s.EndNS >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.EndNS < 0 {
			continue
		}
		d := s.EndNS - s.StartNS - covered(kids[i], s.StartNS, s.EndNS)
		self[layerOf(s.Name)] += time.Duration(d)
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

func (t *tracer) printSelfTime(w io.Writer) {
	self := t.selfTime()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintln(w, "layer self-time (traced units of work and replay passes)")
	for _, l := range layers {
		fmt.Fprintf(w, "  %-12s %12.3f s\n", l, self[l].Seconds())
	}
}

// write stores every span, with the run's stamp, as one JSON file.
func (t *tracer) write(dir, workload string, seed int64, st stamp) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	t.mu.Lock()
	data, err := json.MarshalIndent(struct {
		Stamp stamp  `json:"stamp"`
		Spans []span `json:"spans"`
	}{st, t.spans}, "", " ")
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
