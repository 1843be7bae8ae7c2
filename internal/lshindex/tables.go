// Built hash tables for query serving: the candidate-generation
// functions in this package enumerate within-bucket pairs and discard
// the tables, which is right for one batch join but wasteful when the
// same corpus answers many point queries. BitsTables and MinhashTables
// keep the l banded tables resident so a single out-of-corpus
// signature can be probed against them: the query's band keys are
// computed exactly as the corpus keys were, so a query equal to corpus
// vector i collides with precisely the vectors i collides with in the
// batch scan — the property the engine's query-vs-batch consistency
// guarantee rests on. Tables are immutable after Build and safe for
// any number of concurrent Probe calls.

package lshindex

import (
	"bayeslsh/internal/pair"
	"bayeslsh/internal/shard"
)

// BitsTables is a built set of l banded hash tables over packed bit
// signatures (cosine hyperplane hashes), serving point probes.
type BitsTables struct {
	k, l       int
	n          int // corpus size: every bucketed id is below it
	multiProbe bool
	tables     []map[uint64][]int32
}

// BuildBits builds l banded tables of k bits per band over the corpus
// signatures, sharding table construction over workers goroutines.
// multiProbe enables 1-step multi-probe at query time (each probe also
// inspects the k buckets whose band key differs in one bit), matching
// CandidatesBitsMultiProbe's collision condition.
func BuildBits(sigs [][]uint64, k, l, workers int, multiProbe bool) (*BitsTables, error) {
	if err := validateBits(sigs, k, l); err != nil {
		return nil, err
	}
	t := &BitsTables{k: k, l: l, n: len(sigs), multiProbe: multiProbe, tables: make([]map[uint64][]int32, l)}
	shard.Run(l, workers, 1, func(_, _, band int) {
		buckets := make(map[uint64][]int32)
		fillBitsBuckets(buckets, sigs, band, k)
		t.tables[band] = buckets
	})
	return t, nil
}

// Bands returns the number of tables l.
func (t *BitsTables) Bands() int { return t.l }

// BandK returns the number of bits per band.
func (t *BitsTables) BandK() int { return t.k }

// Probe returns the ids of corpus vectors sharing a bucket with sig in
// any band (plus, with multi-probe, any bucket at Hamming distance one
// from sig's band key), deduplicated and in ascending id order. sig
// must cover at least k*l bits.
func (t *BitsTables) Probe(sig []uint64) []int32 {
	seen := pair.NewIDSet(t.n)
	for band := 0; band < t.l; band++ {
		key := bitsBand(sig, band*t.k, t.k)
		seen.Add(t.tables[band][key])
		if t.multiProbe {
			for b := 0; b < t.k; b++ {
				seen.Add(t.tables[band][key^(1<<b)])
			}
		}
	}
	return seen.IDs()
}

// MinhashTables is a built set of l banded hash tables over minhash
// signatures, serving point probes.
type MinhashTables struct {
	k, l   int
	n      int // corpus size: every bucketed id is below it
	tables []map[uint64][]int32
}

// BuildMinhash builds l banded tables of k minhashes per band over the
// corpus signatures, sharding table construction over workers
// goroutines.
func BuildMinhash(sigs [][]uint32, k, l, workers int) (*MinhashTables, error) {
	if err := validateMinhash(sigs, k, l); err != nil {
		return nil, err
	}
	t := &MinhashTables{k: k, l: l, n: len(sigs), tables: make([]map[uint64][]int32, l)}
	shard.Run(l, workers, 1, func(_, _, band int) {
		buckets := make(map[uint64][]int32)
		scratch := make([]uint64, (k+1)/2)
		fillMinhashBuckets(buckets, sigs, band, k, scratch)
		t.tables[band] = buckets
	})
	return t, nil
}

// Bands returns the number of tables l.
func (t *MinhashTables) Bands() int { return t.l }

// BandK returns the number of minhashes per band.
func (t *MinhashTables) BandK() int { return t.k }

// Probe returns the ids of corpus vectors sharing a bucket with sig in
// any band, deduplicated and in ascending id order. sig must cover at
// least k*l hashes.
func (t *MinhashTables) Probe(sig []uint32) []int32 {
	seen := pair.NewIDSet(t.n)
	scratch := make([]uint64, (t.k+1)/2)
	for band := 0; band < t.l; band++ {
		seen.Add(t.tables[band][minhashBandKey(sig, band, t.k, scratch)])
	}
	return seen.IDs()
}

// minhashBandKey computes the band key of hash positions
// [band*k, (band+1)*k) of sig — the same key fillMinhashBuckets
// assigns, factored out so table fills and probes cannot drift apart.
func minhashBandKey(sig []uint32, band, k int, scratch []uint64) uint64 {
	for i := range scratch {
		scratch[i] = 0
	}
	from := band * k
	for i := 0; i < k; i++ {
		scratch[i/2] |= uint64(sig[from+i]) << (32 * (i % 2))
	}
	return fnv1a64(uint64(band)+1, scratch)
}
