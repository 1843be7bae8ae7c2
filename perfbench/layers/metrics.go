package layers

import (
	"fmt"
	"os"
	"time"

	"bayeslsh"
	"bayeslsh/perfbench/bench"
)

// Def is one per-layer metric. Names ending in ".exact" are counters
// that repeat exactly for a fixed source tree and seed; the run checks
// them against earlier runs.
type Def struct{ Name, Unit string }

// PerLayer lists every per-layer metric in BENCHMARK.json order. A
// traced run of any workload prints all of them; a layer the workload
// bypasses reads 0.
var PerLayer = []Def{
	{"sighash.hash_s", "s"},
	{"sighash.query_hash_us", "us"},
	{"sighash.query_bits.exact", "count"},
	{"sighash.block_fill_s", "s"},
	{"minhash.hash_s", "s"},
	{"lshindex.candgen_s", "s"},
	{"lshindex.candidates.exact", "count"},
	{"lshindex.probe_us", "us"},
	{"lshindex.probe_candidates.exact", "count"},
	{"allpairs.candgen_s", "s"},
	{"allpairs.candidates.exact", "count"},
	{"core.verify_s", "s"},
	{"core.pruned_frac.exact", "frac"},
	{"core.hashes_per_candidate.exact", "count"},
	{"core.survivors_32_frac.exact", "frac"},
	{"core.survivors_64_frac.exact", "frac"},
	{"core.verify_query_us", "us"},
	{"core.query_hashes_compared.exact", "count"},
	{"core.est_err_frac", "frac"},
	{"exact.sims.exact", "count"},
	{"exact.topk_sims.exact", "count"},
	{"bayeslsh.query_us", "us"},
	{"bayeslsh.topk_us", "us"},
	{"bayeslsh.build_s", "s"},
	{"bayeslsh.warm_s", "s"},
	{"diskidx.open_ms", "ms"},
	{"diskidx.first_touch_ms", "ms"},
	{"diskidx.mapped_mb", "MB"},
	{"diskidx.resident_mb", "MB"},
	{"live.add_us", "us"},
	{"live.delete_us", "us"},
	{"live.merges", "count"},
	{"live.merge_s", "s"},
	{"live.delta_max", "count"},
	{"rescache.hit_frac", "frac"},
	{"rescache.lookups", "count"},
	{"rescache.hit_us", "us"},
	{"rescache.self_us", "us"},
	{"rescache.evictions", "count"},
	{"rescache.invalidations", "count"},
	{"server.query_p99_ms", "ms"},
	{"server.handler_ms", "ms"},
	{"server.http_us", "us"},
	{"server.overhead_us", "us"},
	{"server.rejected", "count"},
	{"server.topk_p50_ms", "ms"},
	{"server.add_p50_ms", "ms"},
	{"server.add_p99_ms", "ms"},
	{"server.delete_p50_ms", "ms"},
	{"daemon.cpu_s", "s"},
	{"process.peak_rss_mb", "MB"},
	{"host.ref_ms", "ms"},
	{"host.steal_frac", "frac"},
	{"wall.ops_per_s", "1/s"},
	{"wall.op_p50_ms", "ms"},
	{"loadgen.cpu_s", "s"},
	{"loadgen.clients", "count"},
	{"loadgen.gomaxprocs", "count"},
	{"trace.overhead_us", "us"},
	{"trace.spans", "count"},
	{"trace.replayed_ops.exact", "count"},
}

// Names returns the per-layer metric names.
func Names() []string {
	out := make([]string, len(PerLayer))
	for i, d := range PerLayer {
		out[i] = d.Name
	}
	return out
}

// Metrics collects a traced run's per-layer values. Every metric
// starts at 0, the value of a layer the workload does not reach.
type Metrics struct {
	rep  *bench.Report
	unit map[string]string
}

func newMetrics(rep *bench.Report) *Metrics {
	m := &Metrics{rep: rep, unit: map[string]string{}}
	for _, d := range PerLayer {
		m.unit[d.Name] = d.Unit
		if _, ok := rep.Metrics[d.Name]; !ok {
			rep.Set(d.Name, 0, d.Unit)
		}
	}
	return m
}

// set records a metric; exact counters are also handed to the
// cross-run equality check.
func (m *Metrics) set(name string, v float64) {
	u, ok := m.unit[name]
	if !ok {
		panic("layers: undeclared metric " + name)
	}
	m.rep.Set(name, v, u)
	if len(name) > 6 && name[len(name)-6:] == ".exact" {
		m.rep.Exact[name] = v
	}
}

// Replay runs the traced replay for the finished workload in st and
// adds every per-layer metric to rep.
func Replay(cfg bench.Config, st *bench.State, rep *bench.Report) error {
	m := newMetrics(rep)
	m.set("core.est_err_frac", rep.Metrics["est_err_frac"].Value)
	m.set("process.peak_rss_mb", rep.Metrics["peak_rss_mb"].Value)
	var (
		tr  *Tracer
		err error
	)
	if st.Join != nil {
		tr, err = replayJoin(st.Join, m)
	} else {
		tr, err = replayServe(st.Serve, m, rep)
	}
	if err != nil {
		return err
	}
	m.set("trace.spans", float64(len(tr.Spans())))
	path, err := tr.Write(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.Spans()), path)
	return nil
}

// replayJoin reports the join layers from the library's own cost
// surfaces (Output's phase times and counters) and traces two more
// searches to measure what tracing adds to one.
func replayJoin(run *bench.JoinRun, m *Metrics) (*Tracer, error) {
	out := run.First
	med := func(ds []time.Duration) float64 {
		s := make([]float64, len(ds))
		for i, d := range ds {
			s[i] = d.Seconds()
		}
		return bench.Median(s)
	}
	hash, cand := "sighash.hash_s", "lshindex"
	if run.Job.Measure == bayeslsh.Jaccard {
		hash = "minhash.hash_s"
	}
	if run.Job.Algorithm == bayeslsh.AllPairsBayesLSH {
		cand = "allpairs"
	}
	m.set(hash, med(run.Hash))
	m.set(cand+".candgen_s", med(run.CandGen))
	m.set(cand+".candidates.exact", float64(out.Candidates))
	m.set("core.verify_s", med(run.Verify))
	setCurve(m, out.Candidates, out.Pruned, out.HashesCompared, out.SurvivorsByRound)
	m.set("exact.sims.exact", float64(out.ExactVerified))

	tr := NewTracer()
	var traced []float64
	for i := 0; i < 2; i++ {
		tr.Request()
		root := tr.Begin("op.search", 0)
		start := time.Now()
		s := tr.Begin("bayeslsh.search", root)
		_, err := bench.Search(run)
		tr.End(s)
		tr.End(root)
		if err != nil {
			return nil, err
		}
		traced = append(traced, float64(time.Since(start))/float64(time.Microsecond))
	}
	untraced := make([]float64, len(run.Searches))
	for i, d := range run.Searches {
		untraced[i] = float64(d) / float64(time.Microsecond)
	}
	m.set("trace.overhead_us", bench.Median(traced)-bench.Median(untraced))
	m.set("trace.replayed_ops.exact", 2)
	return tr, nil
}

// setCurve records BayesLSH's pruning curve (the paper's Figure 4)
// with the candidate count as its base.
func setCurve(m *Metrics, cands, pruned int, hashes int64, surv []int) {
	base := float64(max(cands, 1))
	m.set("core.pruned_frac.exact", float64(pruned)/base)
	m.set("core.hashes_per_candidate.exact", float64(hashes)/base)
	if len(surv) > 0 {
		m.set("core.survivors_32_frac.exact", float64(surv[0])/base)
	}
	if len(surv) > 1 {
		m.set("core.survivors_64_frac.exact", float64(surv[1])/base)
	}
}
