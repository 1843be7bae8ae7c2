package pair

import (
	"math/bits"
	"sort"
)

// Pair identifies two distinct vectors by their collection indices,
// normalized so that A < B.
type Pair struct {
	A, B int32
}

// Make returns the normalized pair for ids a and b.
func Make(a, b int32) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// Key packs the pair into a single comparable 64-bit key.
func (p Pair) Key() uint64 { return uint64(uint32(p.A))<<32 | uint64(uint32(p.B)) }

// Result is a pair that passed verification, with its (exact or
// estimated) similarity.
type Result struct {
	A, B int32
	Sim  float64
}

// Hit is a one-sided (query versus corpus) result: the corpus id of a
// vector similar to the query and its (exact or estimated) similarity.
// It is the query-serving counterpart of Result, which pairs two
// corpus ids.
type Hit struct {
	ID  int32
	Sim float64
}

// SortHitsBySim orders hits by decreasing similarity, breaking ties by
// ascending corpus id — the canonical order of top-k query results.
func SortHitsBySim(hs []Hit) {
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].Sim != hs[j].Sim {
			return hs[i].Sim > hs[j].Sim
		}
		return hs[i].ID < hs[j].ID
	})
}

// Pair returns the normalized pair of the result.
func (r Result) Pair() Pair { return Make(r.A, r.B) }

// SortResults orders results by (A, B) for deterministic output.
func SortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].A != rs[j].A {
			return rs[i].A < rs[j].A
		}
		return rs[i].B < rs[j].B
	})
}

// SortPairs orders pairs by (A, B).
func SortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].B < ps[j].B
	})
}

// Set is a deduplicating collector of pairs.
type Set struct {
	seen map[uint64]struct{}
	list []Pair
}

// NewSet returns an empty set with capacity hint n.
func NewSet(n int) *Set {
	return &Set{seen: make(map[uint64]struct{}, n)}
}

// Add inserts the normalized pair (a, b) if not already present and
// reports whether it was added. Self-pairs are ignored.
func (s *Set) Add(a, b int32) bool {
	if a == b {
		return false
	}
	p := Make(a, b)
	if _, dup := s.seen[p.Key()]; dup {
		return false
	}
	s.seen[p.Key()] = struct{}{}
	s.list = append(s.list, p)
	return true
}

// Len returns the number of distinct pairs collected.
func (s *Set) Len() int { return len(s.list) }

// Pairs returns the collected pairs in insertion order. The returned
// slice is owned by the set; callers must not modify it.
func (s *Set) Pairs() []Pair { return s.list }

// IDSet is a dense deduplicating collector of ids in [0, n): one bit
// per id, drained word by word, so ids come out ascending without a
// sort. It is the candidate dedup of every point probe, where one
// query's ids repeat across bands and multi-probe neighbours.
type IDSet struct {
	words []uint64
}

// NewIDSet returns an empty set over ids in [0, n).
func NewIDSet(n int) IDSet { return IDSet{words: make([]uint64, (n+63)/64)} }

// Add inserts each id of ids.
func (s IDSet) Add(ids []int32) {
	for _, id := range ids {
		s.words[id>>6] |= 1 << (id & 63)
	}
}

// AddBelow inserts the ids of the ascending list ids that are below
// bound, stopping at the first one that is not.
func (s IDSet) AddBelow(ids []int32, bound int32) {
	for _, id := range ids {
		if id >= bound {
			return
		}
		s.words[id>>6] |= 1 << (id & 63)
	}
}

// IDs returns the collected ids in ascending order, nil when empty.
func (s IDSet) IDs() []int32 {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	if n == 0 {
		return nil
	}
	ids := make([]int32, 0, n)
	for i, w := range s.words {
		for w != 0 {
			ids = append(ids, int32(i<<6|bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return ids
}
