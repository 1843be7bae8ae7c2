package bayeslsh

import (
	"math"
	"sync"
	"testing"

	"bayeslsh/internal/core"
)

// queryTestConfig describes one measure's cross-check setup, matching
// the thresholds and engine configs of the batch agreement tests.
type queryTestConfig struct {
	measure   Measure
	threshold float64
	cfg       EngineConfig
	prep      func(*Dataset) *Dataset
}

func queryTestConfigs() []queryTestConfig {
	return []queryTestConfig{
		{Cosine, 0.7, EngineConfig{Seed: 7, SignatureBits: 1024}, func(d *Dataset) *Dataset { return d.TfIdf().Normalize() }},
		{Jaccard, 0.4, EngineConfig{Seed: 8}, func(d *Dataset) *Dataset { return d.Binarize() }},
		{BinaryCosine, 0.7, EngineConfig{Seed: 9, SignatureBits: 1024}, func(d *Dataset) *Dataset { return d }},
	}
}

// batchPartners extracts, for every vector id, the partners and
// similarities the batch search reports for pairs involving it.
func batchPartners(out *Output, n int) []map[int]float64 {
	ps := make([]map[int]float64, n)
	for i := range ps {
		ps[i] = map[int]float64{}
	}
	for _, r := range out.Results {
		ps[r.A][r.B] = r.Sim
		ps[r.B][r.A] = r.Sim
	}
	return ps
}

// queryAlgorithms are the query-serving pipelines; every one of them
// is exactly consistent with the batch search (the AllPairs candidate
// test is symmetric in the pair, so even the estimate-reporting
// AllPairsBayesLSH pipeline agrees strictly — see docs/QUERYING.md).
func queryAlgorithms() []Algorithm {
	return []Algorithm{
		BruteForce, AllPairs, LSH, LSHApprox,
		LSHBayesLSH, LSHBayesLSHLite,
		AllPairsBayesLSH, AllPairsBayesLSHLite,
	}
}

// The full build-once/query-many consistency matrix lives in
// query_matrix_test.go (package bayeslsh_test), driven over the shared
// internal/harness grid; the tests below cover the option-dependent
// and concurrency paths that need package-internal access.

// TestQueryVariants exercises the option-dependent query paths that
// the main cross-check matrix skips: multi-probe banding and 1-bit
// minhash verification.
func TestQueryVariants(t *testing.T) {
	t.Run("multiprobe", func(t *testing.T) {
		ds := smallDataset(t, 300).TfIdf().Normalize()
		eng, err := NewEngine(ds, Cosine, EngineConfig{Seed: 7, SignatureBits: 1024})
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Algorithm: LSHBayesLSHLite, Threshold: 0.7, MultiProbe: true}
		crossCheck(t, eng, ds, opts, 0)
	})
	t.Run("onebit", func(t *testing.T) {
		ds := smallDataset(t, 300).Binarize()
		eng, err := NewEngine(ds, Jaccard, EngineConfig{Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Algorithm: LSHBayesLSH, Threshold: 0.4, OneBitMinhash: true}
		crossCheck(t, eng, ds, opts, 0)
	})
}

// crossCheck compares Query against Search for every dataset vector.
func crossCheck(t *testing.T, eng *Engine, ds *Dataset, opts Options, tol float64) {
	t.Helper()
	batch, err := eng.Search(opts)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := eng.BuildIndex(opts)
	if err != nil {
		t.Fatal(err)
	}
	partners := batchPartners(batch, ds.Len())
	for i := 0; i < ds.Len(); i++ {
		ms, err := ix.Query(ds.Vector(i), QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got := map[int]float64{}
		for _, m := range ms {
			if m.ID != i {
				got[m.ID] = m.Sim
			}
		}
		if len(got) != len(partners[i]) {
			t.Fatalf("query %d: %d partners, batch %d", i, len(got), len(partners[i]))
		}
		for id, ws := range partners[i] {
			if gs, ok := got[id]; !ok || math.Abs(gs-ws) > tol {
				t.Fatalf("query %d partner %d: got %v ok=%v, batch %v", i, id, got[id], ok, ws)
			}
		}
	}
}

// TestQueryDeterminism asserts the query path's determinism guarantee:
// identical results at any Parallelism and BatchSize for a fixed Seed,
// including under concurrent use of one index.
func TestQueryDeterminism(t *testing.T) {
	ds := smallDataset(t, 300).TfIdf().Normalize()
	opts := Options{Algorithm: LSHBayesLSH, Threshold: 0.7}
	queries := make([]Vec, ds.Len())
	for i := range queries {
		queries[i] = ds.Vector(i)
	}

	build := func(parallelism, batch int) *Index {
		ix, err := NewIndex(ds, Cosine, EngineConfig{Seed: 7, SignatureBits: 1024, Parallelism: parallelism, BatchSize: batch}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	seq := build(1, 0)
	want, err := seq.QueryBatch(queries, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	for _, pc := range []struct{ p, b int }{{4, 0}, {4, 16}, {2, 1}} {
		got, err := build(pc.p, pc.b).QueryBatch(queries, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		requireSameMatches(t, got, want)
	}

	// A batch on a freshly built engine at Parallelism 4 and the full
	// 2048-bit budget: its workers grow their lazy query signatures
	// concurrently, materializing the deep hash blocks at the same
	// time. It must equal sequential Query.
	fresh := func(parallelism int) *Index {
		ix, err := NewIndex(ds, Cosine, EngineConfig{Seed: 7, Parallelism: parallelism}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	batch, err := fresh(4).QueryBatch(queries, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	single := fresh(1)
	seqQuery := make([][]Match, len(queries))
	for i, q := range queries {
		if seqQuery[i], err = single.Query(q, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	requireSameMatches(t, batch, seqQuery)

	// Concurrent single queries against one shared index (exercises
	// the lazily filled signature stores under the race detector).
	ix := build(4, 0)
	got := make([][]Match, len(queries))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += 8 {
				ms, err := ix.Query(queries[i], QueryOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = ms
			}
		}(w)
	}
	wg.Wait()
	requireSameMatches(t, got, want)
}

func requireSameMatches(t *testing.T, got, want [][]Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d query results, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("query %d: %d matches, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("query %d match %d: %+v, want %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestTopK checks top-k semantics against a manual exact ranking over
// the brute-force candidate source.
func TestTopK(t *testing.T) {
	ds := smallDataset(t, 200).TfIdf().Normalize()
	ix, err := NewIndex(ds, Cosine, EngineConfig{Seed: 7, SignatureBits: 1024},
		Options{Algorithm: BruteForce, Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	for i := 0; i < 20; i++ {
		got, err := ix.TopK(ds.Vector(i), k)
		if err != nil {
			t.Fatal(err)
		}
		// TopK reports the top k among vectors meeting the built
		// threshold — possibly fewer than k.
		qualifying := 0
		for j := 0; j < ds.Len(); j++ {
			if ds.Similarity(Cosine, i, j) >= 0.5 {
				qualifying++
			}
		}
		if want := min(k, qualifying); len(got) != want {
			t.Fatalf("query %d: %d matches, want %d (of %d qualifying)", i, len(got), want, qualifying)
		}
		for _, m := range got {
			if m.Sim < 0.5 {
				t.Fatalf("query %d: sub-threshold match %+v", i, m)
			}
		}
		// The query vector itself must rank first with similarity 1.
		if got[0].ID != i || got[0].Sim < 0.999999 {
			t.Fatalf("query %d: top match %+v, want self", i, got[0])
		}
		// Ranking must be by decreasing similarity, ids ascending on ties.
		for j := 1; j < len(got); j++ {
			if got[j].Sim > got[j-1].Sim ||
				(got[j].Sim == got[j-1].Sim && got[j].ID <= got[j-1].ID) {
				t.Fatalf("query %d: matches out of order: %+v before %+v", i, got[j-1], got[j])
			}
		}
		// Every returned similarity must be exact.
		for _, m := range got {
			if want := ds.Similarity(Cosine, i, m.ID); m.Sim != want {
				t.Fatalf("query %d match %d: sim %v, exact %v", i, m.ID, m.Sim, want)
			}
		}
	}
	if _, err := ix.TopK(ds.Vector(0), 0); err == nil {
		t.Fatal("TopK(0) should fail")
	}
}

// TestQueryOptionsValidation covers threshold overrides and the
// rejected configurations.
func TestQueryOptionsValidation(t *testing.T) {
	ds := smallDataset(t, 200).TfIdf().Normalize()
	ix, err := NewIndex(ds, Cosine, EngineConfig{Seed: 7, SignatureBits: 1024},
		Options{Algorithm: LSH, Threshold: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Query(ds.Vector(0), QueryOptions{Threshold: 0.5}); err == nil {
		t.Fatal("threshold below the built threshold should fail")
	}
	base, err := ix.Query(ds.Vector(0), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	high, err := ix.Query(ds.Vector(0), QueryOptions{Threshold: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(high) > len(base) {
		t.Fatalf("raising the threshold grew the result set: %d > %d", len(high), len(base))
	}
	for _, m := range high {
		if m.Sim < 0.9 {
			t.Fatalf("match %+v below the override threshold", m)
		}
	}

	if ms, err := ix.Query(NewVec(nil), QueryOptions{}); err != nil || ms != nil {
		t.Fatalf("empty query: %v, %v; want nil, nil", ms, err)
	}
	if _, err := NewIndex(ds, Cosine, EngineConfig{Seed: 1}, Options{Algorithm: PPJoin, Threshold: 0.6}); err == nil {
		t.Fatal("PPJoin index should be rejected")
	}
}

// TestQueryOutOfVocabulary checks that queries carrying feature
// indices the corpus has never seen are served, not crashed on: the
// hyperplane family hashes the query's projection onto the corpus
// feature space, and exact verification accounts for the unseen mass
// through the full query norm.
func TestQueryOutOfVocabulary(t *testing.T) {
	ds := smallDataset(t, 200).TfIdf().Normalize()
	dim := uint32(ds.Dim())
	// A corpus vector's features plus out-of-vocabulary mass: the OOV
	// term contributes to the query norm but to no corpus dot product.
	mixed := map[uint32]float64{dim + 3: 0.2}
	base := ds.c.Vecs[0]
	for j, ind := range base.Ind {
		mixed[ind] = base.Val[j]
	}
	for _, alg := range []Algorithm{LSH, LSHBayesLSHLite, BruteForce} {
		ix, err := NewIndex(ds, Cosine, EngineConfig{Seed: 7, SignatureBits: 1024},
			Options{Algorithm: alg, Threshold: 0.6})
		if err != nil {
			t.Fatal(err)
		}
		oov := NewVec(map[uint32]float64{dim: 1, dim + 7: 2.5})
		if ms, err := ix.Query(oov, QueryOptions{}); err != nil || len(ms) != 0 {
			t.Fatalf("%v: all-OOV query: %v, %v; want no matches", alg, ms, err)
		}
		if _, err := ix.TopK(oov, 3); err != nil {
			t.Fatalf("%v: all-OOV TopK: %v", alg, err)
		}
		q := NewVec(mixed)
		ms, err := ix.Query(q, QueryOptions{})
		if err != nil {
			t.Fatalf("%v: mixed query: %v", alg, err)
		}
		// The query is nearly vector 0, so it must at least find it,
		// and every reported similarity must be the exact cosine of
		// the FULL query (OOV mass included) for the exact pipelines.
		found := false
		for _, m := range ms {
			if m.ID == 0 {
				found = true
			}
			want := toExactMeasure(Cosine).Sim(q.v, ds.c.Vecs[m.ID])
			if m.Sim != want {
				t.Fatalf("%v: match %d sim %v, exact %v", alg, m.ID, m.Sim, want)
			}
			if m.Sim >= 1 {
				t.Fatalf("%v: match %d sim %v ignores the OOV mass", alg, m.ID, m.Sim)
			}
		}
		if !found {
			t.Fatalf("%v: mixed query did not find vector 0 (matches %v)", alg, ms)
		}
	}
}

// TestIndexStats sanity-checks the build statistics.
func TestIndexStats(t *testing.T) {
	ds := smallDataset(t, 200).Binarize()
	ix, err := NewIndex(ds, Jaccard, EngineConfig{Seed: 8},
		Options{Algorithm: LSHBayesLSH, Threshold: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.Tables < 1 || st.BandK < 1 {
		t.Fatalf("missing banding stats: %+v", st)
	}
	if st.PriorCandidates == 0 {
		t.Fatalf("Jaccard BayesLSH index should have fitted a prior from candidates: %+v", st)
	}
	if st.BuildTime <= 0 {
		t.Fatalf("zero build time: %+v", st)
	}
	if ix.Len() != ds.Len() || ix.Measure() != Jaccard || ix.Threshold() != 0.4 {
		t.Fatalf("accessors wrong: len %d measure %v t %v", ix.Len(), ix.Measure(), ix.Threshold())
	}
}

// TestQueryHashDepth pins lazy query hashing on RCV1-sim (seed 42,
// t = 0.7, LSH+BayesLSH) over a fixed set of self-queries. prepare
// hashes a query to banding depth only, rounded up to a whole block;
// verification deepens it to exactly the deepest round any candidate
// reaches, rounded up to a block, as measured by verifying each
// candidate alone against an eagerly hashed signature. The total
// blocks hashed over the set is a golden count, so a regression to
// eager hashing fails exactly.
func TestQueryHashDepth(t *testing.T) {
	const goldenBlocks = 508 // eager hashing: 100 queries × 16 blocks = 1600
	ds := testDataset(t).TfIdf().Normalize()
	ix, err := NewIndex(ds, Cosine, EngineConfig{Seed: 42}, Options{Algorithm: LSHBayesLSH, Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	fam := ix.engine().bitSigStore().Family()
	bb := fam.BlockBits()
	roundUp := func(bits int) int { return (bits + bb - 1) / bb * bb }
	bandDepth := roundUp(ix.bandBits)
	if bandDepth != 384 {
		t.Fatalf("banding depth %d bits (band bits %d), want 384", bandDepth, ix.bandBits)
	}
	blocks := 0
	for i := 0; i < ds.Len(); i += 40 {
		qs := ix.prepare(ds.Vector(i), false)
		if got := qs.lazy.FilledBits(); got != bandDepth {
			t.Fatalf("query %d: %d bits hashed after prepare, want %d", i, got, bandDepth)
		}
		ids := ix.candidates(qs)
		if _, err := ix.verify(qs, ids, nil); err != nil {
			t.Fatal(err)
		}
		deepest := 0
		full := fam.SignatureN(restrictToDim(qs.work, fam.Dim()), ix.verifyBits)
		for _, id := range ids {
			_, st := ix.vq.VerifyQuery(core.QuerySig{Bits: full}, []int32{id})
			deepest = max(deepest, int(st.HashesCompared))
		}
		want := max(bandDepth, roundUp(deepest))
		if got := qs.lazy.FilledBits(); got != want {
			t.Fatalf("query %d: %d bits hashed after verification, want %d (deepest round %d)", i, got, want, deepest)
		}
		blocks += qs.lazy.FilledBits() / bb
	}
	if blocks != goldenBlocks {
		t.Fatalf("%d blocks hashed over the query set, golden %d", blocks, goldenBlocks)
	}
}
