// Package bench is the end-to-end half of the repository benchmark: it
// generates each workload's inputs from a seed, drives the library or
// the apss daemon, checks the outputs and measures what a user sees.
// It uses only the public bayeslsh API and the daemon's HTTP surface,
// so internal refactors cannot break it; the traced per-layer replay
// lives in package layers.
package bench

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	JoinCosineLSH = "join-cosine-lsh"
	JoinJaccardAP = "join-jaccard-ap"
	ServeRead     = "serve-read"
	ServeMixed    = "serve-mixed"
)

// Workloads lists every workload the benchmark runs.
var Workloads = []string{JoinCosineLSH, JoinJaccardAP, ServeRead, ServeMixed}

// Clients is the closed-loop client count of the serving workloads,
// and the core count the benchmark needs: it refuses to run on fewer.
const Clients = 2

// Config is one benchmark invocation.
type Config struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	// Tiny shrinks every input so a run takes a few seconds; it is for
	// the smoke test, never for measurement.
	Tiny bool
	// Root is the repository checkout; every file the run writes goes
	// under Root/.bench_build.
	Root string
	// Apss is the daemon binary built from Root.
	Apss string
}

// ParseFlags reads the command line shared by the two benchmark binaries.
func ParseFlags(args []string) (Config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var c Config
	var trace int
	fs.StringVar(&c.Workload, "workload", "", "workload name")
	fs.Uint64Var(&c.Seed, "seed", 1, "input seed")
	fs.Float64Var(&c.Seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1 = traced per-layer run")
	fs.BoolVar(&c.Tiny, "tiny", false, "tiny inputs (smoke test only)")
	fs.StringVar(&c.Root, "root", ".", "repository root")
	fs.StringVar(&c.Apss, "apss", "", "apss binary built from the root")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	c.Trace = trace == 1
	known := false
	for _, w := range Workloads {
		known = known || w == c.Workload
	}
	switch {
	case !known:
		return c, fmt.Errorf("unknown workload %q (have %v)", c.Workload, Workloads)
	case c.Seconds <= 0:
		return c, fmt.Errorf("-seconds %v must be positive", c.Seconds)
	case runtime.NumCPU() < Clients:
		return c, fmt.Errorf("nproc is %d: the serving workloads' closed loop of %d clients needs a core per client, or it measures the scheduler", runtime.NumCPU(), Clients)
	case c.Apss == "":
		return c, errors.New("-apss is required")
	}
	root, err := filepath.Abs(c.Root)
	if err != nil {
		return c, err
	}
	c.Root = root
	return c, nil
}

// BuildDir is the directory that holds every file a run writes.
func (c Config) BuildDir() string { return filepath.Join(c.Root, ".bench_build") }

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last line of output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Report accumulates a run's outcome: counts of attempted and failed
// operations, the reasons for failures, and the metrics.
type Report struct {
	Attempted int
	Failed    int
	Problems  []string
	Metrics   map[string]Metric
	// Exact holds the counters that must repeat exactly for a fixed
	// source tree, workload and seed.
	Exact map[string]float64
}

// NewReport returns an empty report.
func NewReport() *Report {
	return &Report{Metrics: map[string]Metric{}, Exact: map[string]float64{}}
}

// Set records a metric.
func (r *Report) Set(name string, v float64, unit string) { r.Metrics[name] = Metric{v, unit} }

// Fail records a failed operation or check.
func (r *Report) Fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// Check counts one correctness check, failing it unless ok.
func (r *Report) Check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Fail(format, args...)
	}
}

// Print writes the problems to stderr and the result JSON as the last
// line of w, keeping only the named metrics.
func (r *Report) Print(w io.Writer, names []string) error {
	for _, p := range r.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	res := Result{Correct: r.Failed == 0, Attempted: max(r.Attempted, 1), Failed: r.Failed, Metrics: map[string]Metric{}}
	for _, n := range names {
		m, ok := r.Metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		res.Metrics[n] = m
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// Median returns the median of xs (0 for none).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 for none). xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// MiB is the unit the memory metrics report in.
const MiB = 1 << 20
