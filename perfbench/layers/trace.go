// Package layers is the traced half of the repository benchmark: it
// replays the start of a workload's seeded operation stream with one
// client, records spans around the daemon call and around in-process
// calls into each layer (rescache, bayeslsh, sighash, lshindex, core,
// exact, live), and reports per-layer metrics. It rebuilds those
// layers from the workload's corpus through their constructors and
// fails the run unless they reproduce the served answers exactly.
//
// It imports internal packages, so a refactor that renames an
// internal entry point breaks this package (and the traced run) only;
// the end-to-end binary (packages bench and cmd/e2e) never links it.
package layers

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"bayeslsh/perfbench/bench"
)

// Span is one timed call: spans of one replayed operation share Req,
// and Parent is the ID of the span that caused it (0 for the
// operation's root span).
type Span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. It is used by one
// goroutine.
type Tracer struct {
	t0    time.Time
	req   int
	spans []Span
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Request starts a new operation; later spans belong to it.
func (t *Tracer) Request() { t.req++ }

// Begin opens a span under parent and returns its ID.
func (t *Tracer) Begin(name string, parent int) int {
	t.spans = append(t.spans, Span{Req: t.req, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

// End closes span id.
func (t *Tracer) End(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// Duration returns the length of the closed span id.
func (t *Tracer) Duration(id int) time.Duration {
	s := t.spans[id-1]
	return time.Duration(s.End - s.Start)
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span { return t.spans }

// SelfTimes returns, per span name, every span's self time: its
// duration minus the part its child spans cover. Children of one span
// run one after another, so their durations add.
func SelfTimes(spans []Span) map[string][]time.Duration {
	child := make([]int64, len(spans)+1)
	for _, s := range spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]time.Duration{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start-child[s.ID]))
	}
	return out
}

// Write saves the spans as JSON under the run's build directory.
func (t *Tracer) Write(cfg bench.Config) (string, error) {
	dir := filepath.Join(cfg.BuildDir(), "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, cfg.Workload+"-"+strconv.FormatUint(cfg.Seed, 10)+".json")
	b, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// us converts durations to float microseconds.
func us(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}
