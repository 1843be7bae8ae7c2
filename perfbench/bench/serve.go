package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bayeslsh"
)

// Op kinds of the serving workloads' operation streams.
const (
	OpQuery = iota
	OpTopK
	OpAdd
	OpDelete
	numOps
)

// OpNames are the daemon routes of the op kinds.
var OpNames = [numOps]string{"query", "topk", "add", "delete"}

// Op is one operation of a seeded stream. Arg is a query-pool index
// (query, topk), a held-out vector index (add) or a base id (delete).
type Op struct {
	Kind int
	Arg  int
}

// Serving workload parameters. The pool is larger than the cache and
// drawn Zipf-skewed, so a partial share of reads hits the cache; the
// daemon serves the LSH+BayesLSH cosine pipeline at t = 0.7.
const (
	serveThreshold = 0.7
	TopK           = 10
	poolSize       = 6000
	zipfS          = 1.01
	CacheSize      = 72
	checkSample    = 1000 // queries checked against the library and brute force
	setupRounds    = 3
	streamLen      = 400_000
)

// ServeRun is the state of a serving workload, kept for the traced
// replay: inputs, the op stream and the measured daemon.
type ServeRun struct {
	Cfg        Config
	Work       string
	Mixed      bool
	Corpus     []Sparse // base corpus as served (preprocessed), id = index
	CorpusFile string   // the base corpus in the library's vector format
	Snapshot   string   // the offline-built v3 snapshot (serve-read)
	Pool       []Sparse // query pool: perturbed corpus vectors
	Held       []Sparse // held-out vectors for /v1/add (serve-mixed)
	Ops        []Op
	Daemon     *Daemon
	Client     *http.Client
	// Start execs and warms a fresh daemon like the measured one,
	// returning it and its set-up time.
	Start func() (*Daemon, time.Duration, error)
	// BuildTime is the offline `apss build` time (serve-read).
	BuildTime time.Duration
	// Warm is the warm-up pass of the measured daemon.
	Warm time.Duration
	// Window holds the measured window's client-side figures.
	Window *WindowStats

	bodies [][2][]byte // query and top-k request bodies per pool entry
}

// Body returns the request body of op.
func (sr *ServeRun) Body(op Op) []byte {
	switch op.Kind {
	case OpQuery, OpTopK:
		return sr.bodies[op.Arg][op.Kind]
	case OpAdd:
		return reqBody("vec", sr.Held[op.Arg%len(sr.Held)].Wire(), "")
	default:
		return []byte(`{"id":` + strconv.Itoa(op.Arg) + `}`)
	}
}

func reqBody(key, val, extra string) []byte {
	q, _ := json.Marshal(val)
	return []byte(`{"` + key + `":` + string(q) + extra + `}`)
}

// RunServe prepares a serving workload, sets the daemon up several
// times, measures a closed-loop window against the last one, checks
// its answers, and calls after (which may replay against the daemon)
// before stopping it.
func RunServe(cfg Config, work string, rep *Report, after func(*ServeRun) error) error {
	sr, err := prepareServe(cfg, work)
	if err != nil {
		return err
	}
	// Set-up: exec → listening → warm-up pass done, repeated; the last
	// daemon is the measured one.
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		d, took, err := sr.Start()
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		if i < setupRounds-1 {
			d.Stop()
			continue
		}
		sr.Daemon = d
	}
	defer sr.Daemon.Stop()
	rep.Set("setup_s", Median(setups), "s")

	if err := sr.measure(rep); err != nil {
		return err
	}
	if err := sr.check(rep); err != nil {
		return err
	}
	return after(sr)
}

func prepareServe(cfg Config, work string) (*ServeRun, error) {
	shape := RCV1
	if cfg.Tiny {
		shape = shape.Tiny()
	}
	sr := &ServeRun{Cfg: cfg, Work: work, Mixed: cfg.Workload == ServeMixed, Client: newClient(Clients + 2)}
	held := 0
	if sr.Mixed {
		held = shape.N
	}
	rawFile := filepath.Join(work, "raw.txt")
	if err := shape.Generate(cfg.Seed, shape.N+held).WriteFile(rawFile); err != nil {
		return nil, err
	}
	all, err := LoadDataset(rawFile, bayeslsh.Cosine)
	if err != nil {
		return nil, err
	}
	base := all.Slice(0, shape.N)
	sr.CorpusFile = filepath.Join(work, "corpus.txt")
	if err := writeDataset(base, sr.CorpusFile); err != nil {
		return nil, err
	}
	for i := 0; i < all.Len(); i++ {
		v := SparseOf(all.Vector(i))
		if i < shape.N {
			sr.Corpus = append(sr.Corpus, v)
		} else {
			sr.Held = append(sr.Held, v)
		}
	}

	r := newRand(cfg.Seed, 3)
	pool := poolSize
	if cfg.Tiny {
		pool /= 10
	}
	for len(sr.Pool) < pool {
		if v := sr.Corpus[r.IntN(len(sr.Corpus))]; len(v.Ind) > 0 {
			sr.Pool = append(sr.Pool, Perturb(v, r))
		}
	}
	sr.Ops = opStream(r, sr.Mixed, len(sr.Pool), len(sr.Corpus))
	for _, q := range sr.Pool {
		w := q.Wire()
		sr.bodies = append(sr.bodies, [2][]byte{reqBody("vec", w, ""), reqBody("vec", w, `,"k":`+strconv.Itoa(TopK))})
	}

	daemonArgs := []string{"serve", "-http", "127.0.0.1:0", "-parallel", strconv.Itoa(parallelism),
		"-cache-size", strconv.Itoa(CacheSize)}
	if sr.Mixed {
		daemonArgs = append(daemonArgs, "-file", sr.CorpusFile, "-measure", "cosine",
			"-algorithm", "LSH+BayesLSH", "-t", fmt.Sprint(serveThreshold), "-seed", fmt.Sprint(engineSeed))
	} else {
		sr.Snapshot = filepath.Join(work, "index.v3")
		start := time.Now()
		out, err := exec.Command(cfg.Apss, "build", "-file", sr.CorpusFile, "-measure", "cosine",
			"-algorithm", "LSH+BayesLSH", "-t", fmt.Sprint(serveThreshold), "-seed", fmt.Sprint(engineSeed),
			"-parallel", strconv.Itoa(parallelism), "-format", "v3", "-out", sr.Snapshot).CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("apss build: %v: %s", err, out)
		}
		sr.BuildTime = time.Since(start)
		daemonArgs = append(daemonArgs, "-index", sr.Snapshot)
	}
	warmBody, err := json.Marshal(map[string][]string{"vecs": wires(sr.Pool)})
	if err != nil {
		return nil, err
	}
	sr.Start = func() (*Daemon, time.Duration, error) {
		start := time.Now()
		d, err := StartDaemon(cfg.Apss, daemonArgs...)
		if err != nil {
			return nil, 0, err
		}
		// The first pass over the pool pays the lazy hash-family and
		// signature materialization; /v1/batch bypasses the result
		// cache, so the window starts with a cold cache.
		w := time.Now()
		status, body, err := post(sr.Client, d.URL+"/v1/batch", warmBody)
		if err == nil && (status != http.StatusOK || !bytes.Contains(body, []byte(`"done":true`))) {
			err = fmt.Errorf("warm-up batch: status %d", status)
		}
		if err != nil {
			d.Stop()
			return nil, 0, fmt.Errorf("%w (daemon: %s)", err, d.Tail())
		}
		sr.Warm = time.Since(w)
		return d, time.Since(start), nil
	}
	return sr, nil
}

func writeDataset(ds *bayeslsh.Dataset, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := ds.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func wires(vs []Sparse) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Wire()
	}
	return out
}

// opStream draws the seeded operation sequence: reads pick a pool
// entry Zipf-skewed; serve-mixed also adds held-out vectors in order
// and deletes base ids in a seeded order, never the same one twice.
func opStream(r *rand.Rand, mixed bool, pool, base int) []Op {
	zipf := rand.NewZipf(r, zipfS, 1, uint64(pool-1))
	z := func() int { return int(zipf.Uint64()) }
	perm := r.Perm(base)
	ops := make([]Op, 0, streamLen)
	adds, dels := 0, 0
	for len(ops) < streamLen {
		u := r.Float64()
		switch {
		case !mixed && u < 0.85, mixed && u < 0.80:
			ops = append(ops, Op{OpQuery, z()})
		case !mixed, u < 0.85:
			ops = append(ops, Op{OpTopK, z()})
		case u < 0.95:
			ops = append(ops, Op{OpAdd, adds})
			adds++
		case dels < base/2:
			ops = append(ops, Op{OpDelete, perm[dels]})
			dels++
		default:
			ops = append(ops, Op{OpQuery, z()})
		}
	}
	return ops
}

// WindowStats are the client-side figures of the measured window.
type WindowStats struct {
	Seconds   float64
	Ops       int
	Latency   [numOps][]float64 // ms, per op kind
	Added     map[int]int       // external id → held-out index
	Deleted   map[int]bool
	DaemonCPU time.Duration
	LoadCPU   time.Duration
	// GoMaxProcs is the load generator's; DeltaMax the largest delta
	// segment /v1/stats showed during the window (polled in traced runs
	// only).
	GoMaxProcs int
	DeltaMax   int

	Metrics map[string]float64 // /metrics after the window
	Before  map[string]float64 // /metrics before the window
	Stats   map[string]any     // /v1/stats after the window
}

// slice is how long the closed loop runs between two reference
// kernels (see Reference).
const slice = time.Second

// measure runs the closed loop: Clients clients, each sending its
// next operation only when the previous reply is complete, taking
// operations in stream order from a shared cursor. The window is cut
// into slices; between two, the clients wait while the daemon goes
// idle and the reference kernel runs. Rates count the slices only.
func (sr *ServeRun) measure(rep *Report) error {
	d, c := sr.Daemon, sr.Client
	ws := &WindowStats{Added: map[int]int{}, Deleted: map[int]bool{}}
	before, err := Scrape(c, d.URL)
	if err != nil {
		return err
	}
	alloc0, err := TotalAlloc(c, d.URL)
	if err != nil {
		return err
	}
	cpu0, err := ProcCPU(d.Pid)
	if err != nil {
		return err
	}
	self0 := SelfCPU()

	var (
		cursor atomic.Int64
		poll   sync.WaitGroup
		timer  refTimer
	)
	deadline := time.Now().Add(time.Duration(sr.Cfg.Seconds * float64(time.Second)))
	rss := SampleRSS(d.Pid, 50*time.Millisecond)
	if sr.Cfg.Trace {
		poll.Add(1)
		go func() {
			defer poll.Done()
			for time.Now().Before(deadline) {
				var st struct{ Delta int }
				if b, err := get(c, d.URL+"/v1/stats"); err == nil && json.Unmarshal(b, &st) == nil {
					ws.DeltaMax = max(ws.DeltaMax, st.Delta)
				}
				time.Sleep(100 * time.Millisecond)
			}
		}()
	}
	timer.Ref()
	for time.Now().Before(deadline) {
		start := time.Now()
		end := start.Add(slice)
		if end.After(deadline) {
			end = deadline
		}
		ops, queries := sr.loop(&cursor, end, ws, rep)
		took := time.Since(start)
		if err := waitIdle(d.Pid); err != nil {
			return err
		}
		timer.Ref()
		timer.Span(ops, took, queries)
	}
	poll.Wait()
	ws.Seconds = timer.busy
	ws.GoMaxProcs = runtime.GOMAXPROCS(0)
	rssMB := Median(rss.Stop())
	ws.LoadCPU = SelfCPU() - self0 - timer.cpu
	cpu1, err := ProcCPU(d.Pid)
	if err != nil {
		return err
	}
	ws.DaemonCPU = cpu1 - cpu0
	peak, err := RSS(d.Pid, "VmHWM")
	if err != nil {
		return err
	}
	alloc1, err := TotalAlloc(c, d.URL)
	if err != nil {
		return err
	}
	ws.Before = before
	if ws.Metrics, err = Scrape(c, d.URL); err != nil {
		return err
	}
	b, err := get(c, d.URL+"/v1/stats")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &ws.Stats); err != nil {
		return fmt.Errorf("/v1/stats: %w", err)
	}
	for k := range ws.Latency {
		ws.Ops += len(ws.Latency[k])
	}
	rep.Attempted += ws.Ops
	sr.Window = ws

	q := ws.Latency[OpQuery]
	timer.Set(rep)
	rep.Set("query_p99_ms", Quantile(q, 0.99), "ms")
	rep.Set("rss_mb", rssMB, "MB")
	rep.Set("peak_rss_mb", float64(peak)/MiB, "MB")
	rep.Set("alloc_mb_per_op", (alloc1-alloc0)/float64(max(ws.Ops, 1))/MiB, "MB")

	m, m0 := ws.Metrics, ws.Before
	hits := m["apss_cache_hits_total"] - m0["apss_cache_hits_total"]
	misses := m["apss_cache_misses_total"] - m0["apss_cache_misses_total"]
	hitFrac := hits / math.Max(hits+misses, 1)
	fmt.Fprintf(os.Stderr, "perfbench: %s: closed loop, %d clients, GOMAXPROCS %d, nproc %d: %d ops in %.2fs (%.0f/s), query p50 %.3f ms p99 %.3f ms, reference p50 %.1f ms, host steal %.3f, cache hits %.3f of %.0f, merges %v, daemon cpu %.2fs, loadgen cpu %.2fs\n",
		sr.Cfg.Workload, Clients, runtime.GOMAXPROCS(0), runtime.NumCPU(), ws.Ops, ws.Seconds, float64(ws.Ops)/ws.Seconds,
		Median(q), Quantile(q, 0.99), Median(timer.refs)*1e3, rep.Metrics["host.steal_frac"].Value, hitFrac, hits+misses, ws.Stats["merges"], ws.DaemonCPU.Seconds(), ws.LoadCPU.Seconds())
	return nil
}

// loop runs the closed loop until end and adds its operations to ws.
// It returns how many operations completed and the query latencies
// (ms).
func (sr *ServeRun) loop(cursor *atomic.Int64, end time.Time, ws *WindowStats, rep *Report) (ops int, queries []float64) {
	d, c := sr.Daemon, sr.Client
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for range Clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat [numOps][]float64
			added := map[int]int{}
			var deleted []int
			var fails []string
			for time.Now().Before(end) {
				i := int(cursor.Add(1) - 1)
				op := sr.Ops[i%len(sr.Ops)]
				t0 := time.Now()
				status, resp, err := post(c, d.URL+"/v1/"+OpNames[op.Kind], sr.Body(op))
				took := time.Since(t0)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(resp))
				}
				if err == nil {
					err = sr.record(op, resp, added, &deleted)
				}
				if err != nil {
					fails = append(fails, fmt.Sprintf("%s op %d: %v", OpNames[op.Kind], i, err))
					continue
				}
				lat[op.Kind] = append(lat[op.Kind], ms(took))
			}
			mu.Lock()
			defer mu.Unlock()
			for k := range lat {
				ws.Latency[k] = append(ws.Latency[k], lat[k]...)
				ops += len(lat[k])
			}
			queries = append(queries, lat[OpQuery]...)
			for id, h := range added {
				ws.Added[id] = h
			}
			for _, id := range deleted {
				ws.Deleted[id] = true
			}
			for _, f := range fails {
				rep.Attempted++
				rep.Fail("%s", f)
			}
		}()
	}
	wg.Wait()
	return ops, queries
}

// waitIdle waits, for at most a second, until the daemon has used no
// CPU for 50 ms, so that a background merge does not share the cores
// with the reference kernel.
func waitIdle(pid int) error {
	last, err := ProcCPU(pid)
	if err != nil {
		return err
	}
	for range 20 {
		time.Sleep(50 * time.Millisecond)
		now, err := ProcCPU(pid)
		if err != nil {
			return err
		}
		if now == last {
			return nil
		}
		last = now
	}
	return nil
}

// record checks one reply and remembers the effect of a write.
func (sr *ServeRun) record(op Op, resp []byte, added map[int]int, deleted *[]int) error {
	switch op.Kind {
	case OpQuery, OpTopK:
		if !bytes.Contains(resp, []byte(`{"done":true`)) {
			return fmt.Errorf("reply has no done row")
		}
	case OpAdd:
		var a struct{ ID *int }
		if err := json.Unmarshal(resp, &a); err != nil || a.ID == nil {
			return fmt.Errorf("bad add reply %q", resp)
		}
		added[*a.ID] = op.Arg % len(sr.Held)
	case OpDelete:
		var a struct{ Deleted bool }
		if err := json.Unmarshal(resp, &a); err != nil || !a.Deleted {
			return fmt.Errorf("delete of live id %d not acknowledged: %q", op.Arg, resp)
		}
		*deleted = append(*deleted, op.Arg)
	}
	return nil
}

// Match rows and the done row, as the daemon encodes them.
type matchRow struct {
	ID  int     `json:"id"`
	Sim float64 `json:"sim"`
}

type doneRow struct {
	Done    bool `json:"done"`
	Matches int  `json:"matches"`
}

// EncodeMatches renders matches exactly as the daemon's NDJSON reply.
func EncodeMatches(ms []bayeslsh.Match) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, m := range ms {
		enc.Encode(matchRow{m.ID, m.Sim})
	}
	enc.Encode(doneRow{true, len(ms)})
	return b.Bytes()
}

// DecodeMatches parses an NDJSON match reply.
func DecodeMatches(body []byte) ([]bayeslsh.Match, error) {
	var out []bayeslsh.Match
	dec := json.NewDecoder(bytes.NewReader(body))
	for dec.More() {
		var row struct {
			ID   *int
			Sim  float64
			Done bool
		}
		if err := dec.Decode(&row); err != nil {
			return nil, err
		}
		if row.Done {
			return out, nil
		}
		if row.ID == nil {
			return nil, fmt.Errorf("reply row without id")
		}
		out = append(out, bayeslsh.Match{ID: *row.ID, Sim: row.Sim})
	}
	return nil, fmt.Errorf("reply has no done row")
}

// check compares the daemon's answers for a fixed sample of queries
// with the library's, byte for byte, and scores them against brute
// force: recall of the true matches and the share of estimates off by
// more than δ. serve-mixed first saves the daemon's state and reopens
// it in-process, so the library answers over the same corpus cut.
func (sr *ServeRun) check(rep *Report) error {
	c, d := sr.Client, sr.Daemon
	path := sr.Snapshot
	live := map[int]Sparse{}
	for i, v := range sr.Corpus {
		live[i] = v
	}
	if sr.Mixed {
		path = filepath.Join(sr.Work, "saved.snap")
		body, _ := json.Marshal(map[string]string{"path": path})
		status, resp, err := post(c, d.URL+"/v1/save", body)
		rep.Check(err == nil && status == http.StatusOK, "save: %v %d %s", err, status, resp)
		if err != nil || status != http.StatusOK {
			return nil
		}
		for id := range sr.Window.Deleted {
			delete(live, id)
		}
		for id, h := range sr.Window.Added {
			live[id] = sr.Held[h]
		}
	}
	li, err := bayeslsh.OpenLiveFile(path, bayeslsh.LiveConfig{})
	if err != nil {
		return fmt.Errorf("open %s: %w", path, err)
	}
	defer li.Close()
	ctx := context.Background()

	found, truth, bad, reported, absErr := 0, 0, 0, 0, 0.0
	n := min(checkSample, len(sr.Pool))
	for i := 0; i < n; i++ {
		q := sr.Pool[i]
		for _, kind := range [...]int{OpQuery, OpTopK} {
			if kind == OpTopK && i%4 != 0 {
				continue
			}
			status, resp, err := post(c, d.URL+"/v1/"+OpNames[kind], sr.Body(Op{kind, i}))
			var want []bayeslsh.Match
			if err == nil && kind == OpQuery {
				want, err = li.QueryContext(ctx, q.Vec(), bayeslsh.QueryOptions{})
			} else if err == nil {
				want, err = li.TopKContext(ctx, q.Vec(), TopK)
			}
			rep.Check(err == nil && status == http.StatusOK && bytes.Equal(resp, EncodeMatches(want)),
				"%s %d: daemon reply differs from the library's (status %d, err %v)", OpNames[kind], i, status, err)
			if kind != OpQuery || err != nil {
				continue
			}
			got, err := DecodeMatches(resp)
			if err != nil {
				rep.Fail("query %d: %v", i, err)
				continue
			}
			returned := map[int]bool{}
			for _, m := range got {
				returned[m.ID] = true
				v, ok := live[m.ID]
				e := 1.0 // a deleted or unknown id is wholly wrong
				if ok {
					e = math.Abs(m.Sim - Cosine(q, v))
				}
				absErr += e
				if e > delta {
					bad++
				}
			}
			reported += len(got)
			for id, v := range live {
				if Cosine(q, v) >= serveThreshold {
					truth++
					if returned[id] {
						found++
					}
				}
			}
		}
	}
	recall := float64(found) / float64(max(truth, 1))
	errFrac := float64(bad) / float64(max(reported, 1))
	rep.Set("recall", recall, "frac")
	rep.Set("est_abs_err", absErr/float64(max(reported, 1)), "sim")
	rep.Set("est_err_frac", errFrac, "frac")
	rep.Check(truth > 0 && recall >= 0.9, "recall %.4f below 0.9 (%d of %d true matches)", recall, found, truth)
	rep.Check(errFrac <= 0.1, "%.4f of estimates off by more than δ", errFrac)
	return nil
}
