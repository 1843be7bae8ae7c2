package layers

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"bayeslsh"
	"bayeslsh/internal/core"
	"bayeslsh/internal/exact"
	"bayeslsh/internal/lshindex"
	"bayeslsh/internal/rescache"
	"bayeslsh/internal/rng"
	"bayeslsh/internal/sighash"
	"bayeslsh/internal/vector"
	"bayeslsh/perfbench/bench"
)

// replayOps is how many operations of the stream the replay runs.
const replayOps = 600

// The serving pipeline's shape, as the daemon builds it: LSH+BayesLSH
// cosine with the library defaults (2048 signature bits in 128-bit
// blocks, bands of 8 bits at a false-negative rate of ε = 0.03, 32
// hashes a round) and the engine seed the benchmark passes.
const (
	sigBits    = 2048
	blockBits  = 128
	bandK      = 8
	engineSeed = 42
)

// traced wraps the library's live index so that the rescache layer's
// calls into it are recorded as bayeslsh spans (children of the
// rescache span that caused them, which the replay sets in parent).
// last is the most recent bayeslsh span, 0 after a cache hit.
type traced struct {
	*bayeslsh.LiveIndex
	tr     *Tracer
	parent int
	last   int
}

func (t *traced) QueryContext(ctx context.Context, q bayeslsh.Vec, o bayeslsh.QueryOptions) ([]bayeslsh.Match, error) {
	t.last = t.tr.Begin("bayeslsh.query", t.parent)
	defer t.tr.End(t.last)
	return t.LiveIndex.QueryContext(ctx, q, o)
}

func (t *traced) TopKContext(ctx context.Context, q bayeslsh.Vec, k int) ([]bayeslsh.Match, error) {
	t.last = t.tr.Begin("bayeslsh.topk", t.parent)
	defer t.tr.End(t.last)
	return t.LiveIndex.TopKContext(ctx, q, k)
}

// rebuilt is the query pipeline assembled from the layer packages'
// constructors over the served corpus: the hyperplane family and its
// signature store (sighash), the banded tables (lshindex), the
// BayesLSH verifier (core) and exact similarity (exact), plus a delta
// segment for vectors added during the replay and the deleted ids.
type rebuilt struct {
	fam        *sighash.BlockFamily
	corpus     *vector.Collection
	tables     *lshindex.BitsTables
	vq         core.QueryVerifier
	bandBits   int
	verifyBits int

	delta     *lshindex.BitsDelta
	deltaSigs [][]uint64
	deltaRaw  []vector.Vector
	deltaVQ   core.QueryVerifier
	deleted   map[int]bool

	stats core.Stats // summed over replayed queries
	cands int
	sims  int // exact similarities computed by top-k
}

func rebuild(corpus *vector.Collection) (*rebuilt, time.Duration, error) {
	rb := &rebuilt{corpus: corpus, deleted: map[int]bool{}}
	rb.fam = sighash.NewBlockFamily(corpus.Dim, sigBits, blockBits, rng.Derive(engineSeed, 1))
	// The first signature on a fresh family pays its lazy block fill.
	start := time.Now()
	if len(corpus.Vecs) > 0 {
		rb.fam.SignatureN(corpus.Vecs[0], sigBits)
	}
	fill := time.Since(start)

	store := sighash.NewStore(corpus, rb.fam)
	l := min(lshindex.NumTables(sighash.CosineToR(0.7), bandK, 0.03), store.MaxBits()/bandK)
	rb.bandBits = bandK * l
	store.EnsureAllParallel(rb.bandBits, 2)
	var err error
	if rb.tables, err = lshindex.BuildBits(store.Sigs(), bandK, l, 2, false); err != nil {
		return nil, 0, err
	}
	params := core.Params{Threshold: 0.7, Epsilon: 0.03, Delta: 0.05, Gamma: 0.03, K: 32,
		MaxHashes: min(sigBits, store.MaxBits()), Ensure: store.Ensure}
	if rb.vq, err = core.NewCosine(store.Sigs(), store.MaxBits(), params); err != nil {
		return nil, 0, err
	}
	rb.verifyBits = rb.vq.Params().MaxHashes
	rb.delta = lshindex.NewBitsDelta(bandK, l, false)
	return rb, fill, nil
}

// restrict limits v to the family's feature space, as the index does
// before hashing a query.
func (rb *rebuilt) restrict(v vector.Vector) vector.Vector {
	dim := rb.fam.Dim()
	k := sort.Search(v.Len(), func(i int) bool { return int(v.Ind[i]) >= dim })
	return vector.Vector{Ind: v.Ind[:k], Val: v.Val[:k]}
}

// add mirrors LiveIndex.Add for a cosine index: the raw vector is
// hashed to the base depths and banded into the delta tables.
func (rb *rebuilt) add(raw vector.Vector) error {
	slot := len(rb.deltaSigs)
	sig := rb.fam.SignatureN(raw, max(rb.bandBits, rb.verifyBits))
	rb.deltaSigs = append(rb.deltaSigs, sig)
	rb.deltaRaw = append(rb.deltaRaw, raw)
	rb.delta.Add(int32(slot), sig)
	p := rb.vq.Params()
	p.Ensure = nil
	var err error
	rb.deltaVQ, err = core.NewCosine(rb.deltaSigs, p.MaxHashes, p)
	return err
}

func (rb *rebuilt) live(ids []int32, base bool) []int32 {
	kept := ids[:0]
	for _, id := range ids {
		ext := int(id)
		if !base {
			ext += len(rb.corpus.Vecs)
		}
		if !rb.deleted[ext] {
			kept = append(kept, id)
		}
	}
	return kept
}

// query answers one threshold query or top-k through the rebuilt
// layers, recording a span around each layer call.
func (rb *rebuilt) query(tr *Tracer, parent int, q bayeslsh.Vec, topK int) ([]bayeslsh.Match, error) {
	ind, val := q.Features()
	raw := vector.Vector{Ind: ind, Val: val}
	work := raw.Clone().Normalize()
	depth := rb.bandBits
	if topK == 0 {
		depth = max(rb.bandBits, rb.verifyBits)
	}
	s := tr.Begin("sighash", parent)
	bits := rb.fam.SignatureN(rb.restrict(work), depth)
	tr.End(s)

	s = tr.Begin("lshindex", parent)
	bids := rb.live(rb.tables.Probe(bits), true)
	n := len(rb.deltaSigs)
	dids := rb.live(rb.delta.Probe(bits, int32(n)), false)
	tr.End(s)
	rb.cands += len(bids) + len(dids)

	var out []bayeslsh.Match
	if topK > 0 {
		s = tr.Begin("exact", parent)
		for _, id := range bids {
			if sim := exact.Cosine.Sim(raw, rb.corpus.Vecs[id]); sim >= 0.7 {
				out = append(out, bayeslsh.Match{ID: int(id), Sim: sim})
			}
		}
		for _, id := range dids {
			if sim := exact.Cosine.Sim(raw, rb.deltaRaw[id]); sim >= 0.7 {
				out = append(out, bayeslsh.Match{ID: len(rb.corpus.Vecs) + int(id), Sim: sim})
			}
		}
		rb.sims += len(bids) + len(dids)
		sort.Slice(out, func(i, j int) bool {
			if out[i].Sim != out[j].Sim {
				return out[i].Sim > out[j].Sim
			}
			return out[i].ID < out[j].ID
		})
		if len(out) > topK {
			out = out[:topK]
		}
		tr.End(s)
		return out, nil
	}

	s = tr.Begin("core", parent)
	defer tr.End(s)
	qs := core.QuerySig{Bits: bits}
	hits, st, err := rb.vq.VerifyQueryStop(qs, bids, nil)
	if err != nil {
		return nil, err
	}
	rb.sum(st)
	for _, h := range hits {
		out = append(out, bayeslsh.Match{ID: int(h.ID), Sim: h.Sim})
	}
	if len(dids) > 0 {
		hits, st, err = rb.deltaVQ.VerifyQueryStop(qs, dids, nil)
		if err != nil {
			return nil, err
		}
		rb.sum(st)
		for _, h := range hits {
			out = append(out, bayeslsh.Match{ID: len(rb.corpus.Vecs) + int(h.ID), Sim: h.Sim})
		}
	}
	return out, nil
}

func (rb *rebuilt) sum(st core.Stats) {
	rb.stats.Candidates += st.Candidates
	rb.stats.Pruned += st.Pruned
	rb.stats.HashesCompared += st.HashesCompared
	if len(rb.stats.SurvivorsByRound) < len(st.SurvivorsByRound) {
		rb.stats.SurvivorsByRound = append(rb.stats.SurvivorsByRound,
			make([]int, len(st.SurvivorsByRound)-len(rb.stats.SurvivorsByRound))...)
	}
	for i, v := range st.SurvivorsByRound {
		rb.stats.SurvivorsByRound[i] += v
	}
}

func sameMatches(a, b []bayeslsh.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// replayServe replays the first replayOps operations of the stream
// twice with one client: untraced, over HTTP only, then traced, over
// HTTP and in-process through the rescache front of the library index
// and through the rebuilt layers. Every read must get the same matches
// from all three. serve-read replays against the measured daemon (its
// index is read-only); serve-mixed starts a fresh daemon for each pass
// so both begin from the initial corpus.
func replayServe(sr *bench.ServeRun, m *Metrics, rep *bench.Report) (*Tracer, error) {
	setWindow(sr, m)
	ctx := context.Background()
	n := min(replayOps, len(sr.Ops))
	ops := sr.Ops[:n]

	// Untraced pass.
	d := sr.Daemon
	if sr.Mixed {
		var err error
		if d, _, err = sr.Start(); err != nil {
			return nil, err
		}
	}
	var plain []float64
	for i, op := range ops {
		t0 := time.Now()
		if _, err := send(sr, d, op); err != nil {
			rep.Check(false, "untraced replay op %d: %v", i, err)
		}
		plain = append(plain, float64(time.Since(t0))/float64(time.Microsecond))
	}
	if sr.Mixed {
		d.Stop()
	}

	// In-process layers: the library index behind a rescache front,
	// and the pipeline rebuilt from the layer packages.
	corpus, err := readCorpus(sr.CorpusFile)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var li *bayeslsh.LiveIndex
	if sr.Mixed {
		ds, err := bench.LoadCorpusFile(sr.CorpusFile)
		if err != nil {
			return nil, err
		}
		li, err = bayeslsh.NewLiveIndex(ds, bayeslsh.Cosine, bayeslsh.EngineConfig{Seed: engineSeed, Parallelism: 2},
			bayeslsh.Options{Algorithm: bayeslsh.LSHBayesLSH, Threshold: 0.7}, bayeslsh.LiveConfig{})
		if err != nil {
			return nil, err
		}
		m.set("bayeslsh.build_s", time.Since(start).Seconds())
	} else {
		if li, err = bayeslsh.OpenLiveFile(sr.Snapshot, bayeslsh.LiveConfig{}); err != nil {
			return nil, err
		}
		m.set("diskidx.open_ms", float64(time.Since(start))/float64(time.Millisecond))
		m.set("bayeslsh.build_s", sr.BuildTime.Seconds())
		start = time.Now()
		if _, err := li.QueryContext(ctx, sr.Pool[0].Vec(), bayeslsh.QueryOptions{}); err != nil {
			return nil, err
		}
		m.set("diskidx.first_touch_ms", float64(time.Since(start))/float64(time.Millisecond))
	}
	defer li.Close()
	tr := NewTracer()
	lib := &traced{LiveIndex: li, tr: tr}
	cache := rescache.New(lib, bench.CacheSize)
	rb, fill, err := rebuild(corpus)
	if err != nil {
		return nil, err
	}
	m.set("sighash.block_fill_s", fill.Seconds())

	// Traced pass.
	if sr.Mixed {
		if d, _, err = sr.Start(); err != nil {
			return nil, err
		}
		defer d.Stop()
	}
	// The daemon's cache hit counter, read after every read, tells
	// which replies the daemon served from its cache: serve-read's
	// daemon starts the pass with the window's cache.
	daemonHits := func() (float64, error) {
		mm, err := bench.Scrape(sr.Client, d.URL)
		return mm["apss_cache_hits_total"], err
	}
	hits, err := daemonHits()
	if err != nil {
		return nil, err
	}
	var httpUS, hitUS, overheadUS []float64
	for i, op := range ops {
		tr.Request()
		root := tr.Begin("op."+bench.OpNames[op.Kind], 0)
		h := tr.Begin("http", root)
		body, err := send(sr, d, op)
		tr.End(h)
		if err != nil {
			rep.Check(false, "traced replay op %d: %v", i, err)
			tr.End(root)
			continue
		}
		httpUS = append(httpUS, float64(tr.Duration(h))/float64(time.Microsecond))
		switch op.Kind {
		case bench.OpQuery, bench.OpTopK:
			q := sr.Pool[op.Arg].Vec()
			k := 0
			if op.Kind == bench.OpTopK {
				k = bench.TopK
			}
			before := cache.Counters()
			lib.parent, lib.last = tr.Begin("rescache", root), 0
			var libMs []bayeslsh.Match
			if k > 0 {
				libMs, err = cache.TopKContext(ctx, q, k)
			} else {
				libMs, err = cache.QueryContext(ctx, q, bayeslsh.QueryOptions{})
			}
			tr.End(lib.parent)
			if err != nil {
				return nil, err
			}
			now, err := daemonHits()
			if err != nil {
				return nil, err
			}
			daemonHit := now > hits
			hits = now
			switch {
			case cache.Counters().Hits > before.Hits:
				hitUS = append(hitUS, float64(tr.Duration(lib.parent))/float64(time.Microsecond))
			case k == 0 && !daemonHit:
				// A query both caches missed: the daemon's reply time
				// beyond the library call it made.
				overheadUS = append(overheadUS, float64(tr.Duration(h)-tr.Duration(lib.last))/float64(time.Microsecond))
			}
			got, err := bench.DecodeMatches(body)
			if err != nil {
				return nil, err
			}
			re, err := rb.query(tr, root, q, k)
			if err != nil {
				return nil, err
			}
			rep.Check(sameMatches(got, libMs) && sameMatches(libMs, re),
				"replay op %d (%s): daemon, library and rebuilt layers disagree (%d, %d, %d matches)",
				i, bench.OpNames[op.Kind], len(got), len(libMs), len(re))
		case bench.OpAdd:
			v := sr.Held[op.Arg%len(sr.Held)]
			var a struct{ ID int }
			if err := json.Unmarshal(body, &a); err != nil {
				return nil, fmt.Errorf("replay op %d: add reply %q: %w", i, body, err)
			}
			s := tr.Begin("live.add", root)
			id, err := cache.Add(v.Vec())
			tr.End(s)
			if err != nil {
				return nil, err
			}
			ind, val := v.Vec().Features()
			if err := rb.add(vector.Vector{Ind: ind, Val: val}); err != nil {
				return nil, err
			}
			rep.Check(id == a.ID && id == len(corpus.Vecs)+len(rb.deltaSigs)-1,
				"replay op %d: add got id %d in-process, %d from the daemon", i, id, a.ID)
		case bench.OpDelete:
			s := tr.Begin("live.delete", root)
			ok := cache.Delete(op.Arg)
			tr.End(s)
			rb.deleted[op.Arg] = true
			rep.Check(ok, "replay op %d: in-process delete of %d not acknowledged", i, op.Arg)
		}
		tr.End(root)
	}
	m.set("trace.replayed_ops.exact", float64(n))

	self := SelfTimes(tr.Spans())
	med := func(name string) float64 { return bench.Median(us(self[name])) }
	m.set("sighash.query_hash_us", med("sighash"))
	m.set("sighash.query_bits.exact", float64(max(rb.bandBits, rb.verifyBits)))
	m.set("lshindex.probe_us", med("lshindex"))
	m.set("lshindex.probe_candidates.exact", float64(rb.cands))
	m.set("core.verify_query_us", med("core"))
	m.set("core.query_hashes_compared.exact", float64(rb.stats.HashesCompared))
	setCurve(m, rb.stats.Candidates, rb.stats.Pruned, rb.stats.HashesCompared, rb.stats.SurvivorsByRound)
	m.set("exact.topk_sims.exact", float64(rb.sims))
	m.set("bayeslsh.query_us", med("bayeslsh.query"))
	m.set("bayeslsh.topk_us", med("bayeslsh.topk"))
	m.set("rescache.hit_us", bench.Median(hitUS))
	m.set("rescache.self_us", med("rescache"))
	m.set("live.add_us", med("live.add"))
	m.set("live.delete_us", med("live.delete"))
	m.set("server.http_us", bench.Median(httpUS))
	m.set("server.overhead_us", bench.Median(overheadUS))
	m.set("trace.overhead_us", bench.Median(httpUS)-bench.Median(plain))
	if sr.Mixed {
		start := time.Now()
		if err := li.Compact(); err != nil {
			return nil, err
		}
		m.set("live.merge_s", time.Since(start).Seconds())
	}
	return tr, nil
}

// send replays one operation over HTTP and returns the reply body.
func send(sr *bench.ServeRun, d *bench.Daemon, op bench.Op) ([]byte, error) {
	resp, err := sr.Client.Post(d.URL+"/v1/"+bench.OpNames[op.Kind], "application/json", bytes.NewReader(sr.Body(op)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b.Bytes()))
	}
	return b.Bytes(), nil
}

// setWindow records the per-layer figures of the measured window:
// the daemon's own counters and the client-side route latencies.
func setWindow(sr *bench.ServeRun, m *Metrics) {
	ws := sr.Window
	cur, old := ws.Metrics, ws.Before
	diff := func(k string) float64 { return cur[k] - old[k] }
	hits, misses := diff("apss_cache_hits_total"), diff("apss_cache_misses_total")
	m.set("rescache.lookups", hits+misses)
	m.set("rescache.hit_frac", hits/max(hits+misses, 1))
	m.set("rescache.evictions", diff("apss_cache_evictions_total"))
	m.set("rescache.invalidations", diff("apss_cache_invalidations_total"))
	sum := diff(`apss_request_duration_seconds_sum{route="query"}`)
	cnt := diff(`apss_request_duration_seconds_count{route="query"}`)
	m.set("server.handler_ms", 1e3*sum/max(cnt, 1))
	rejected := 0.0
	for k, v := range cur {
		if len(k) > 19 && k[:19] == "apss_requests_total" && !bytes.Contains([]byte(k), []byte(`class="2xx"`)) {
			rejected += v - old[k]
		}
	}
	m.set("server.rejected", rejected)
	m.set("server.query_p99_ms", bench.Quantile(ws.Latency[bench.OpQuery], 0.99))
	m.set("server.topk_p50_ms", bench.Median(ws.Latency[bench.OpTopK]))
	m.set("server.add_p50_ms", bench.Median(ws.Latency[bench.OpAdd]))
	m.set("server.add_p99_ms", bench.Quantile(ws.Latency[bench.OpAdd], 0.99))
	m.set("server.delete_p50_ms", bench.Median(ws.Latency[bench.OpDelete]))
	m.set("daemon.cpu_s", ws.DaemonCPU.Seconds())
	m.set("loadgen.cpu_s", ws.LoadCPU.Seconds())
	m.set("loadgen.clients", float64(bench.Clients))
	m.set("loadgen.gomaxprocs", float64(ws.GoMaxProcs))
	m.set("bayeslsh.warm_s", sr.Warm.Seconds())
	num := func(k string) float64 {
		v, _ := ws.Stats[k].(float64)
		return v
	}
	m.set("live.merges", num("merges"))
	m.set("live.delta_max", float64(ws.DeltaMax))
	m.set("diskidx.mapped_mb", num("mapped_bytes")/bench.MiB)
	m.set("diskidx.resident_mb", num("resident_bytes")/bench.MiB)
}

func readCorpus(path string) (*vector.Collection, error) {
	ds, err := bench.LoadCorpusFile(path)
	if err != nil {
		return nil, err
	}
	c := &vector.Collection{Dim: ds.Dim()}
	for i := 0; i < ds.Len(); i++ {
		ind, val := ds.Vector(i).Features()
		c.Vecs = append(c.Vecs, vector.Vector{Ind: ind, Val: val})
	}
	return c, nil
}
