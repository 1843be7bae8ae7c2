package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bayeslsh"
)

// Join is a batch self-join workload: Engine.Search on a fresh engine.
type Join struct {
	Name      string
	Shape     Shape
	Measure   bayeslsh.Measure
	Algorithm bayeslsh.Algorithm
	Threshold float64
}

// Joins are the two batch workloads: the paper's two candidate
// generators, each with BayesLSH verification.
var Joins = map[string]Join{
	JoinCosineLSH: {JoinCosineLSH, RCV1, bayeslsh.Cosine, bayeslsh.LSHBayesLSH, 0.7},
	JoinJaccardAP: {JoinJaccardAP, Orkut, bayeslsh.Jaccard, bayeslsh.AllPairsBayesLSH, 0.5},
}

// The engine's hashing seed and worker count are fixed: --seed varies
// only the inputs.
const (
	engineSeed  = 42
	parallelism = 2
	// delta is BayesLSH's accuracy parameter δ: an estimate off by more
	// than δ is an accuracy miss.
	delta = 0.05
)

// JoinRun is what a join run leaves for the traced run.
type JoinRun struct {
	Job     Join
	Dataset *bayeslsh.Dataset
	Config  bayeslsh.EngineConfig
	Options bayeslsh.Options
	// First is the output of the untimed first search.
	First *bayeslsh.Output
	// Searches are the wall times of the timed NewEngine+Search calls;
	// Hash, CandGen and Verify their Output phase times.
	Searches, Hash, CandGen, Verify []time.Duration
}

// RunJoin runs a join workload and fills rep with its end-to-end metrics.
func RunJoin(cfg Config, work string, rep *Report) (*JoinRun, error) {
	job := Joins[cfg.Workload]
	shape := job.Shape
	if cfg.Tiny {
		shape = shape.Tiny()
	}
	file := filepath.Join(work, "corpus.txt")
	if err := shape.Generate(cfg.Seed, shape.N).WriteFile(file); err != nil {
		return nil, err
	}

	// Set-up: read the generated file, preprocess, construct the engine.
	run := &JoinRun{
		Job:     job,
		Config:  bayeslsh.EngineConfig{Seed: engineSeed, Parallelism: parallelism},
		Options: bayeslsh.Options{Algorithm: job.Algorithm, Threshold: job.Threshold},
	}
	var setups []float64
	for i := 0; i < 15; i++ {
		// Every timed call starts from a collected heap, so one call's
		// garbage is not billed to the next.
		runtime.GC()
		start := time.Now()
		ds, err := LoadDataset(file, job.Measure)
		if err != nil {
			return nil, err
		}
		if _, err := bayeslsh.NewEngine(ds, job.Measure, run.Config); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		run.Dataset = ds
	}
	rep.Set("setup_s", Median(setups), "s")

	truth, err := joinTruth(cfg, job, run.Dataset)
	if err != nil {
		return nil, err
	}

	// The first search warms the process and is the one checked in full.
	first, err := Search(run)
	rep.Attempted++
	if err != nil {
		rep.Fail("search: %v", err)
		return nil, err
	}
	run.First = first
	checkJoin(rep, run, first, truth)

	var (
		allocs []float64
		timer  refTimer
	)
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	window := time.Now()
	rss := SampleRSS(os.Getpid(), 50*time.Millisecond)
	// The resident set is sampled during searches only: the reference
	// kernel's buffers are the benchmark's memory, not the program's.
	ref := func() {
		rss.Pause()
		timer.Ref()
		rss.Resume()
	}
	ref()
	for len(run.Searches) < 3 || time.Now().Before(deadline) {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		out, err := Search(run)
		d := time.Since(start)
		runtime.ReadMemStats(&m1)
		rep.Attempted++
		if err != nil {
			// Every pass either records a search or ends the run, so a
			// search that starts failing cannot keep the loop waiting
			// for its third sample.
			rep.Fail("search: %v", err)
			return nil, err
		}
		ref()
		timer.Span(1, d, []float64{ms(d)})
		run.Searches = append(run.Searches, d)
		run.Hash = append(run.Hash, out.HashTime)
		run.CandGen = append(run.CandGen, out.CandGenTime)
		run.Verify = append(run.Verify, out.VerifyTime)
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/MiB)
		// Every search of one engine configuration must return the
		// first one's pairs and counters.
		if !sameOutput(first, out) {
			rep.Fail("search %d differs from the first search of the run", len(run.Searches))
		}
	}
	elapsed := time.Since(window)
	rep.Set("rss_mb", Median(rss.Stop()), "MB")
	// Searches per second of searching: the collections and reference
	// kernels between searches are the benchmark's, not the program's.
	timer.Set(rep)
	rep.Set("alloc_mb_per_op", Median(allocs), "MB")
	peak, err := RSS(os.Getpid(), "VmHWM")
	if err != nil {
		return nil, err
	}
	rep.Set("peak_rss_mb", float64(peak)/MiB, "MB")
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d searches of %d vectors in %.1fs, %d pairs, %d candidates, search p50 %.0f ms, reference p50 %.1f ms, host steal %.3f\n",
		job.Name, len(run.Searches), run.Dataset.Len(), elapsed.Seconds(), len(first.Results), first.Candidates, Median(timer.lat), Median(timer.refs)*1e3, rep.Metrics["host.steal_frac"].Value)

	rep.Exact["candidates"] = float64(first.Candidates)
	rep.Exact["pruned"] = float64(first.Pruned)
	rep.Exact["hashes_compared"] = float64(first.HashesCompared)
	rep.Exact["pairs"] = float64(len(first.Results))
	return run, nil
}

// Search runs one timed operation: NewEngine and Search on a fresh engine.
func Search(run *JoinRun) (*bayeslsh.Output, error) {
	e, err := bayeslsh.NewEngine(run.Dataset, run.Job.Measure, run.Config)
	if err != nil {
		return nil, err
	}
	return e.Search(run.Options)
}

func sameOutput(a, b *bayeslsh.Output) bool {
	if len(a.Results) != len(b.Results) || a.Candidates != b.Candidates || a.Pruned != b.Pruned ||
		a.HashesCompared != b.HashesCompared {
		return false
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			return false
		}
	}
	return true
}

// checkJoin scores one search against the exact answer: recall of the
// true pairs, and the share of reported estimates off by more than δ.
func checkJoin(rep *Report, run *JoinRun, out *bayeslsh.Output, truth map[uint64]float64) {
	found, bad, absErr := 0, 0, 0.0
	rows := map[int]Sparse{}
	row := func(i int) Sparse {
		if s, ok := rows[i]; ok {
			return s
		}
		rows[i] = SparseOf(run.Dataset.Vector(i))
		return rows[i]
	}
	for _, r := range out.Results {
		exact, ok := truth[pairKey(r.A, r.B)]
		if ok {
			found++
		} else if run.Job.Measure == bayeslsh.Jaccard {
			exact = Jaccard(row(r.A), row(r.B))
		} else {
			exact = Cosine(row(r.A), row(r.B))
		}
		absErr += math.Abs(r.Sim - exact)
		if math.Abs(r.Sim-exact) > delta {
			bad++
		}
	}
	recall := float64(found) / float64(max(len(truth), 1))
	errFrac := float64(bad) / float64(max(len(out.Results), 1))
	rep.Set("recall", recall, "frac")
	rep.Set("est_abs_err", absErr/float64(max(len(out.Results), 1)), "sim")
	rep.Set("est_err_frac", errFrac, "frac")
	// The paper's guarantees: recall 1−ε in expectation (ε = 0.03) and
	// Pr[|Ŝ−S| ≥ δ] < γ (γ = 0.03). The checks allow sampling slack.
	rep.Check(len(truth) > 0 && recall >= 0.9, "recall %.4f below 0.9 (%d of %d true pairs)", recall, found, len(truth))
	rep.Check(errFrac <= 0.1, "%.4f of estimates off by more than δ", errFrac)
}

// joinTruth returns the exact answer for the workload's corpus,
// computed off the clock and cached per seed under .bench_build.
func joinTruth(cfg Config, job Join, ds *bayeslsh.Dataset) (map[uint64]float64, error) {
	dir := filepath.Join(cfg.BuildDir(), "truth")
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-tiny=%v.json", job.Name, cfg.Seed, cfg.Tiny))
	var cached struct {
		N     int
		Pairs map[uint64]float64
	}
	if b, err := os.ReadFile(path); err == nil && json.Unmarshal(b, &cached) == nil && cached.N == ds.Len() {
		return cached.Pairs, nil
	}
	rows := make([]Sparse, ds.Len())
	for i := range rows {
		rows[i] = SparseOf(ds.Vector(i))
	}
	cached.N = ds.Len()
	cached.Pairs = ExactJoin(rows, job.Measure, job.Threshold)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b, err := json.Marshal(cached)
	if err != nil {
		return nil, err
	}
	return cached.Pairs, os.WriteFile(path, b, 0o644)
}
