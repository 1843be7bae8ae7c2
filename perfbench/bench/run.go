package bench

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// EndToEnd names the metrics every untraced run prints, in
// BENCHMARK.json order.
var EndToEnd = []string{
	"setup_s", "ops_per_ref", "op_p50_ref",
	"recall", "est_abs_err", "rss_mb", "alloc_mb_per_op",
}

// refTimer times a window's operations in units of the reference
// kernel (see Reference): the kernel runs before the first stretch of
// operations and after each, and a stretch is measured in the
// geometric mean of the two kernel times around it.
type refTimer struct {
	refs          []float64 // kernel times, s
	steal0        [2]uint64 // host steal and total CPU ticks at the first Ref
	cpu           time.Duration
	ops           int
	busy, busyRef float64 // time spent operating, in s and in kernel times
	lat, latRef   []float64
}

// Ref runs the reference kernel once.
func (t *refTimer) Ref() {
	if len(t.refs) == 0 {
		t.steal0 = hostSteal()
	}
	cpu := SelfCPU()
	t.refs = append(t.refs, Reference().Seconds())
	t.cpu += SelfCPU() - cpu
}

// Span records the stretch of operations between the last two Ref
// calls: ops operations in busy seconds, with latency samples lat (ms).
func (t *refTimer) Span(ops int, busy time.Duration, lat []float64) {
	n := len(t.refs)
	unit := math.Sqrt(t.refs[n-2] * t.refs[n-1])
	t.ops += ops
	t.busy += busy.Seconds()
	t.busyRef += busy.Seconds() / unit
	t.lat = append(t.lat, lat...)
	for _, l := range lat {
		t.latRef = append(t.latRef, l/1e3/unit)
	}
}

// Set records the window's throughput (operations per second of
// operating) and median latency, raw and in kernel times.
func (t *refTimer) Set(rep *Report) {
	rep.Set("wall.ops_per_s", float64(t.ops)/t.busy, "1/s")
	rep.Set("wall.op_p50_ms", Median(t.lat), "ms")
	rep.Set("host.ref_ms", Median(t.refs)*1e3, "ms")
	st := hostSteal()
	rep.Set("host.steal_frac", float64(st[0]-t.steal0[0])/float64(max(st[1]-t.steal0[1], 1)), "frac")
	rep.Set("ops_per_ref", float64(t.ops)/t.busyRef, "1/ref")
	rep.Set("op_p50_ref", Median(t.latRef), "ref")
}

// State is what a finished workload leaves for the traced replay: the
// join run or the serving run, whichever the workload was.
type State struct {
	Join  *JoinRun
	Serve *ServeRun
}

// Run executes cfg's workload. after, when non-nil, runs once the
// measured window and its checks are done and before any daemon is
// stopped; the traced run hangs its replay there.
func Run(cfg Config, after func(*State, *Report) error) (*Report, *State, error) {
	work := filepath.Join(cfg.BuildDir(), "work", fmt.Sprintf("%s-%d-%d", cfg.Workload, cfg.Seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(work)
	rep := NewReport()
	st := &State{}
	var err error
	if _, ok := Joins[cfg.Workload]; ok {
		st.Join, err = RunJoin(cfg, work, rep)
		if err == nil && after != nil {
			err = after(st, rep)
		}
	} else {
		err = RunServe(cfg, work, rep, func(sr *ServeRun) error {
			st.Serve = sr
			if after == nil {
				return nil
			}
			return after(st, rep)
		})
	}
	if err != nil {
		return nil, nil, err
	}
	if err := checkExact(cfg, rep); err != nil {
		return nil, nil, err
	}
	return rep, st, nil
}
