package bench

import (
	"bufio"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"sort"
	"strconv"

	"bayeslsh"
)

// Shape describes a synthetic corpus: the benchmark's own generator,
// so the inputs stay fixed when the library's generator changes. The
// two shapes follow the paper's RCV1 (tf-idf text) and Orkut (graph
// adjacency) corpora at the scale of the repository's *-sim datasets.
type Shape struct {
	Graph       bool
	N, Dim      int // Dim is ignored for graphs (it equals N)
	AvgLen      int
	ZipfS       float64
	ClusterFrac float64
	ClusterSize int
	Mutation    float64
}

// RCV1 is the tf-idf text shape of join-cosine-lsh and the serving
// workloads; Orkut the graph shape of join-jaccard-ap.
var (
	RCV1  = Shape{N: 4000, Dim: 12000, AvgLen: 76, ZipfS: 1.05, ClusterFrac: 0.3, ClusterSize: 4, Mutation: 0.25}
	Orkut = Shape{Graph: true, N: 8000, AvgLen: 76, ClusterFrac: 0.25, ClusterSize: 5, Mutation: 0.2}
)

// Tiny scales a shape down for the smoke test.
func (s Shape) Tiny() Shape {
	s.N /= 10
	s.Dim /= 4
	return s
}

// Raw is a generated corpus: sparse rows of raw weights (term
// frequencies or edge multiplicities) keyed by feature.
type Raw struct {
	Dim  int
	Rows []map[uint32]float64
}

func newRand(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// Generate draws n rows of the shape from seed (n ≥ s.N adds rows from
// the same distribution beyond the corpus, for later ingest).
func (s Shape) Generate(seed uint64, n int) Raw {
	if s.Graph {
		return s.graph(seed)
	}
	return s.text(seed, n)
}

// text draws Zipf-distributed terms with term-frequency weights;
// planted clusters are mutated copies of a template document, with a
// per-cluster mutation rate so intra-cluster similarity spans the
// threshold range.
func (s Shape) text(seed uint64, n int) Raw {
	r := newRand(seed, 1)
	z := rand.NewZipf(r, s.ZipfS, 1, uint64(s.Dim-1))
	drawLen := func() int { return max(1, int(float64(s.AvgLen)*(0.5+r.Float64()))) }
	drawDoc := func(l int) map[uint32]float64 {
		m := make(map[uint32]float64, l)
		for i := 0; i < l; i++ {
			m[uint32(z.Uint64())]++
		}
		return m
	}
	rows := make([]map[uint32]float64, 0, n)
	clusters := int(s.ClusterFrac*float64(n)) / s.ClusterSize
	for c := 0; c < clusters; c++ {
		tmpl := drawDoc(drawLen())
		terms := sortedKeys(tmpl)
		mut := (0.1 + 1.9*r.Float64()) * s.Mutation
		for m := 0; m < s.ClusterSize && len(rows) < n; m++ {
			doc := make(map[uint32]float64, len(tmpl))
			for t, v := range tmpl {
				doc[t] = v
			}
			if m > 0 {
				for i := 0; i < int(mut*float64(len(terms))); i++ {
					delete(doc, terms[r.IntN(len(terms))])
					doc[uint32(z.Uint64())]++
				}
			}
			rows = append(rows, doc)
		}
	}
	for len(rows) < n {
		rows = append(rows, drawDoc(drawLen()))
	}
	// Clusters would otherwise sit at the front; spread them so any
	// slice of the corpus has the same shape.
	r.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return Raw{Dim: s.Dim, Rows: rows}
}

// graph builds a preferential-attachment graph with planted
// communities whose members share a pool of neighbours; row i is node
// i's adjacency.
func (s Shape) graph(seed uint64) Raw {
	r := newRand(seed, 2)
	n := s.N
	adj := make([]map[uint32]float64, n)
	for i := range adj {
		adj[i] = map[uint32]float64{}
	}
	ends := make([]uint32, 0, n*s.AvgLen)
	edge := func(u, v uint32) {
		if u != v {
			adj[u][v]++
			adj[v][u]++
			ends = append(ends, u, v)
		}
	}
	edge(0, 1)
	for u := 2; u < n; u++ {
		for e := 0; e < max(1, s.AvgLen/2); e++ {
			edge(uint32(u), ends[r.IntN(len(ends))])
		}
	}
	clusters := int(s.ClusterFrac*float64(n)) / s.ClusterSize
	pool := make([]uint32, 4*s.AvgLen)
	next := n - clusters*s.ClusterSize
	for c := 0; c < clusters; c++ {
		for i := range pool {
			pool[i] = uint32(r.IntN(n))
		}
		mut := (0.1 + 1.9*r.Float64()) * s.Mutation
		keep := int((1 - mut) * float64(len(pool)))
		for m := 0; m < s.ClusterSize; m, next = m+1, next+1 {
			u := uint32(next)
			for _, pi := range r.Perm(len(pool))[:keep] {
				if pool[pi] != u {
					adj[u][pool[pi]]++
				}
			}
			for i := keep; i < len(pool); i++ {
				if v := uint32(r.IntN(n)); v != u {
					adj[u][v]++
				}
			}
		}
	}
	return Raw{Dim: n, Rows: adj}
}

func sortedKeys(m map[uint32]float64) []uint32 {
	ks := make([]uint32, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// WriteFile writes the corpus in the library's vector format.
func (c Raw) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "dim %d\n", c.Dim)
	for _, row := range c.Rows {
		for i, k := range sortedKeys(row) {
			if i > 0 {
				w.WriteByte(' ')
			}
			w.WriteString(strconv.FormatUint(uint64(k), 10))
			w.WriteByte(':')
			w.WriteString(strconv.FormatFloat(row[k], 'g', -1, 64))
		}
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadCorpusFile reads a corpus file with the library, as is.
func LoadCorpusFile(path string) (*bayeslsh.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ds, err := bayeslsh.ReadDataset(f)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return ds, nil
}

// LoadDataset reads a corpus file with the library and applies the
// paper's preprocessing: tf-idf weighting and unit normalization for
// cosine, binarization for Jaccard.
func LoadDataset(path string, m bayeslsh.Measure) (*bayeslsh.Dataset, error) {
	ds, err := LoadCorpusFile(path)
	if err != nil {
		return nil, err
	}
	if m == bayeslsh.Jaccard {
		return ds.Binarize(), nil
	}
	return ds.TfIdf().Normalize(), nil
}

// Sparse is a vector as sorted feature indices and weights.
type Sparse struct {
	Ind []uint32
	Val []float64
}

// SparseOf copies a library vector.
func SparseOf(v bayeslsh.Vec) Sparse {
	ind, val := v.Features()
	return Sparse{append([]uint32(nil), ind...), append([]float64(nil), val...)}
}

// Vec converts back to a library vector.
func (s Sparse) Vec() bayeslsh.Vec {
	m := make(map[uint32]float64, len(s.Ind))
	for i, f := range s.Ind {
		m[f] = s.Val[i]
	}
	return bayeslsh.NewVec(m)
}

// Wire formats the vector the way the daemon parses it.
func (s Sparse) Wire() string {
	b := make([]byte, 0, 16*len(s.Ind))
	for i, f := range s.Ind {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendUint(b, uint64(f), 10)
		b = append(b, ':')
		b = strconv.AppendFloat(b, s.Val[i], 'g', -1, 64)
	}
	return string(b)
}

// Cosine is the exact cosine similarity of two vectors.
func Cosine(a, b Sparse) float64 {
	dot, na, nb := 0.0, 0.0, 0.0
	for _, v := range a.Val {
		na += v * v
	}
	for _, v := range b.Val {
		nb += v * v
	}
	for i, j := 0, 0; i < len(a.Ind) && j < len(b.Ind); {
		switch {
		case a.Ind[i] < b.Ind[j]:
			i++
		case a.Ind[i] > b.Ind[j]:
			j++
		default:
			dot += a.Val[i] * b.Val[j]
			i++
			j++
		}
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// Jaccard is the exact Jaccard similarity of two vectors' supports.
func Jaccard(a, b Sparse) float64 {
	inter := 0
	for i, j := 0, 0; i < len(a.Ind) && j < len(b.Ind); {
		switch {
		case a.Ind[i] < b.Ind[j]:
			i++
		case a.Ind[i] > b.Ind[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	union := len(a.Ind) + len(b.Ind) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Perturb returns a near-duplicate of v: about a tenth of its features
// dropped, the rest reweighted by up to ±15%, renormalized.
func Perturb(v Sparse, r *rand.Rand) Sparse {
	var out Sparse
	norm := 0.0
	for i, f := range v.Ind {
		if r.Float64() < 0.1 && len(v.Ind) > 2 {
			continue
		}
		w := v.Val[i] * (0.85 + 0.3*r.Float64())
		out.Ind = append(out.Ind, f)
		out.Val = append(out.Val, w)
		norm += w * w
	}
	norm = math.Sqrt(norm)
	for i := range out.Val {
		out.Val[i] /= norm
	}
	return out
}

// pairKey packs a pair (a < b) into one map key.
func pairKey(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// ExactJoin returns every pair of rows with similarity at least t and
// its exact similarity, by accumulating overlaps over an inverted
// index (an exhaustive join, independent of the library's code).
func ExactJoin(rows []Sparse, m bayeslsh.Measure, t float64) map[uint64]float64 {
	type posting struct {
		id int32
		w  float64
	}
	post := map[uint32][]posting{}
	norm := make([]float64, len(rows))
	acc := make([]float64, len(rows))
	stamp := make([]int, len(rows))
	var touched []int32
	out := map[uint64]float64{}
	for i, v := range rows {
		for _, w := range v.Val {
			norm[i] += w * w
		}
		norm[i] = math.Sqrt(norm[i])
		touched = touched[:0]
		for k, f := range v.Ind {
			for _, p := range post[f] {
				if stamp[p.id] != i+1 {
					stamp[p.id] = i + 1
					acc[p.id] = 0
					touched = append(touched, p.id)
				}
				if m == bayeslsh.Jaccard {
					acc[p.id]++
				} else {
					acc[p.id] += v.Val[k] * p.w
				}
			}
		}
		for _, j := range touched {
			var s float64
			if m == bayeslsh.Jaccard {
				s = acc[j] / float64(len(v.Ind)+len(rows[j].Ind)-int(acc[j]))
			} else if norm[i] > 0 && norm[j] > 0 {
				s = acc[j] / (norm[i] * norm[j])
			}
			if s >= t {
				out[pairKey(i, int(j))] = s
			}
		}
		for k, f := range v.Ind {
			post[f] = append(post[f], posting{int32(i), v.Val[k]})
		}
	}
	return out
}
