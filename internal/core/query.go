package core

import (
	"bayeslsh/internal/minhash"
	"bayeslsh/internal/pair"
	"bayeslsh/internal/shard"
	"bayeslsh/internal/sighash"
)

// One-sided verification: the batch verifiers compare the signatures
// of two corpus vectors; the query-serving path compares one
// out-of-corpus query signature against corpus signatures. The round
// loop, pruning table and concentration cache are identical — only
// the match hook changes — so for a query whose signature equals
// corpus vector i's, every per-candidate decision (prune round, accept
// round, estimate) is bit-identical to the batch verification of the
// corresponding pair.

// QuerySig carries a query's signature in whichever representation
// the verifier compares: packed bits (cosine and 1-bit Jaccard) or
// minhashes (Jaccard). Bits may be given eagerly, hashed at least as
// deep as verification reads, or as Lazy, a cosine signature the
// verifier grows block by block before each comparison that reads
// past its filled prefix; Lazy takes precedence. Exactly one
// representation is consulted per verifier.
type QuerySig struct {
	Bits []uint64
	Lazy *sighash.LazySig
	Min  []uint32
}

// BitsTo returns the query's packed bits, filled at least to bit to.
func (q QuerySig) BitsTo(to int) []uint64 {
	if q.Lazy == nil {
		return q.Bits
	}
	q.Lazy.Ensure(to)
	return q.Lazy.Words()
}

// QuerySimFunc computes the exact similarity of the query to corpus
// vector id; it is supplied to Lite query verification by the caller.
type QuerySimFunc func(id int32) float64

// QueryVerifier extends Verifier with the one-sided (query versus
// corpus) verification entry points. All verifiers in this package
// implement it; query calls are safe concurrently with each other and
// with batch Verify calls.
type QueryVerifier interface {
	Verifier
	// Params returns the validated parameters in effect.
	Params() Params
	// VerifyQuery runs the BayesLSH round loop (Algorithm 1) for the
	// query signature against each candidate corpus id, returning
	// accepted hits in candidate order.
	VerifyQuery(q QuerySig, ids []int32) ([]pair.Hit, Stats)
	// VerifyQueryLite runs the pruning rounds of BayesLSH-Lite
	// (Algorithm 2) within the first h hashes, then verifies survivors
	// exactly with sim, keeping hits with similarity >= t.
	VerifyQueryLite(q QuerySig, ids []int32, h int, sim QuerySimFunc) ([]pair.Hit, Stats)
	// VerifyQueryStop is VerifyQuery with cooperative cancellation:
	// stop (nil for "not cancelable") is polled between candidates and
	// between rounds; once it trips, partial output is discarded and
	// stop.Err() is returned.
	VerifyQueryStop(q QuerySig, ids []int32, stop *shard.Stopper) ([]pair.Hit, Stats, error)
	// VerifyQueryLiteStop is VerifyQueryLite with cooperative
	// cancellation, under the VerifyQueryStop contract.
	VerifyQueryLiteStop(q QuerySig, ids []int32, h int, sim QuerySimFunc, stop *shard.Stopper) ([]pair.Hit, Stats, error)
}

// stopResultHits discards partial query output once the stopper has
// tripped, so a canceled query never returns a half-verified hit list.
func stopResultHits(hits []pair.Hit, st Stats, stop *shard.Stopper) ([]pair.Hit, Stats, error) {
	if stop.Stopped() {
		return nil, Stats{}, stop.Err()
	}
	return hits, st, nil
}

// verifyQueryOne runs the full round loop for one candidate id against
// the query, mirroring verifyOne with qmatch in place of the two-sided
// match hook. Only the corpus side goes through params.Ensure; the
// query signature is precomputed to MaxHashes by the caller. stop
// (nil for "not cancelable") follows the verifyOne contract: polled
// between rounds, output discarded by the caller on cancellation.
func (kr *kernel) verifyQueryOne(id int32, qmatch func(id int32, from, to int) int, stop *shard.Stopper, st *Stats, out *[]pair.Hit) {
	k := kr.params.K
	m := 0
	pruned := false
	accepted := false
	for round, n := range kr.ns {
		if stop.Stopped() {
			return
		}
		if ensure := kr.params.Ensure; ensure != nil {
			ensure(id, n)
		}
		m += qmatch(id, n-k, n)
		st.HashesCompared += int64(k)
		if m < kr.minM[round] {
			pruned = true
			st.Pruned++
			break
		}
		st.SurvivorsByRound[round]++
		if cached, ok := kr.conc.lookup(round, m); ok {
			st.CacheHits++
			accepted = cached
		} else {
			st.InferenceCalls++
			cv := kr.concentrated(m, n)
			kr.conc.store(round, m, cv)
			accepted = cv
		}
		if accepted {
			*out = append(*out, pair.Hit{ID: id, Sim: kr.estimate(m, n)})
			for r := round + 1; r < len(kr.ns); r++ {
				st.SurvivorsByRound[r]++
			}
			break
		}
	}
	if !pruned && !accepted {
		*out = append(*out, pair.Hit{ID: id, Sim: kr.estimate(m, kr.params.MaxHashes)})
	}
}

// verifyQuery runs the one-sided BayesLSH loop over all candidate ids.
// stop is polled between candidates and rounds; on cancellation the
// partial output must be discarded by the caller (VerifyQueryStop
// does).
func (kr *kernel) verifyQuery(ids []int32, qmatch func(id int32, from, to int) int, stop *shard.Stopper) ([]pair.Hit, Stats) {
	st := Stats{Candidates: len(ids), SurvivorsByRound: make([]int, len(kr.ns))}
	out := make([]pair.Hit, 0, len(ids)/8+1)
	for _, id := range ids {
		if stop.Stopped() {
			break
		}
		kr.verifyQueryOne(id, qmatch, stop, &st, &out)
	}
	st.Accepted = len(out)
	return out, st
}

// verifyQueryLite runs the one-sided pruning rounds, then exact
// verification of survivors. stop follows the verifyQuery contract.
func (kr *kernel) verifyQueryLite(ids []int32, h int, qmatch func(id int32, from, to int) int, sim QuerySimFunc, stop *shard.Stopper) ([]pair.Hit, Stats) {
	k := kr.params.K
	nRounds := liteRounds(h, k, len(kr.ns))
	st := Stats{Candidates: len(ids), SurvivorsByRound: make([]int, nRounds)}
	var out []pair.Hit
	for _, id := range ids {
		if stop.Stopped() {
			break
		}
		m := 0
		survived := true
		for round := 0; round < nRounds; round++ {
			if stop.Stopped() {
				// Abandon mid-candidate; the caller discards the
				// partial output (stopResultHits).
				st.Accepted = len(out)
				return out, st
			}
			n := kr.ns[round]
			if ensure := kr.params.Ensure; ensure != nil {
				ensure(id, n)
			}
			m += qmatch(id, n-k, n)
			st.HashesCompared += int64(k)
			if m < kr.minM[round] {
				st.Pruned++
				survived = false
				break
			}
			st.SurvivorsByRound[round]++
		}
		if !survived {
			continue
		}
		st.ExactVerified++
		if s := sim(id); s >= kr.params.Threshold {
			out = append(out, pair.Hit{ID: id, Sim: s})
		}
	}
	st.Accepted = len(out)
	return out, st
}

// qmatch builds the Jaccard one-sided match hook.
func (v *JaccardVerifier) qmatch(q QuerySig) func(id int32, from, to int) int {
	return func(id int32, from, to int) int {
		return minhash.Matches(q.Min, v.sigs[id], from, to)
	}
}

// VerifyQuery runs BayesLSH for the query minhash signature (q.Min,
// at least MaxHashes hashes) against the candidate corpus ids.
func (v *JaccardVerifier) VerifyQuery(q QuerySig, ids []int32) ([]pair.Hit, Stats) {
	return v.k.verifyQuery(ids, v.qmatch(q), nil)
}

// VerifyQueryLite runs BayesLSH-Lite pruning for the query minhash
// signature, then verifies survivors exactly with sim.
func (v *JaccardVerifier) VerifyQueryLite(q QuerySig, ids []int32, h int, sim QuerySimFunc) ([]pair.Hit, Stats) {
	return v.k.verifyQueryLite(ids, h, v.qmatch(q), sim, nil)
}

// VerifyQueryStop is VerifyQuery with cooperative cancellation.
func (v *JaccardVerifier) VerifyQueryStop(q QuerySig, ids []int32, stop *shard.Stopper) ([]pair.Hit, Stats, error) {
	hits, st := v.k.verifyQuery(ids, v.qmatch(q), stop)
	return stopResultHits(hits, st, stop)
}

// VerifyQueryLiteStop is VerifyQueryLite with cooperative cancellation.
func (v *JaccardVerifier) VerifyQueryLiteStop(q QuerySig, ids []int32, h int, sim QuerySimFunc, stop *shard.Stopper) ([]pair.Hit, Stats, error) {
	hits, st := v.k.verifyQueryLite(ids, h, v.qmatch(q), sim, stop)
	return stopResultHits(hits, st, stop)
}

// qmatch builds the cosine one-sided match hook.
func (v *CosineVerifier) qmatch(q QuerySig) func(id int32, from, to int) int {
	return func(id int32, from, to int) int {
		return sighash.MatchCount(q.BitsTo(to), v.sigs[id], from, to)
	}
}

// VerifyQuery runs BayesLSH for the query bit signature (q.Bits, at
// least MaxHashes bits, or q.Lazy) against the candidate corpus ids.
func (v *CosineVerifier) VerifyQuery(q QuerySig, ids []int32) ([]pair.Hit, Stats) {
	return v.k.verifyQuery(ids, v.qmatch(q), nil)
}

// VerifyQueryLite runs BayesLSH-Lite pruning for the query bit
// signature, then verifies survivors exactly with sim.
func (v *CosineVerifier) VerifyQueryLite(q QuerySig, ids []int32, h int, sim QuerySimFunc) ([]pair.Hit, Stats) {
	return v.k.verifyQueryLite(ids, h, v.qmatch(q), sim, nil)
}

// VerifyQueryStop is VerifyQuery with cooperative cancellation.
func (v *CosineVerifier) VerifyQueryStop(q QuerySig, ids []int32, stop *shard.Stopper) ([]pair.Hit, Stats, error) {
	hits, st := v.k.verifyQuery(ids, v.qmatch(q), stop)
	return stopResultHits(hits, st, stop)
}

// VerifyQueryLiteStop is VerifyQueryLite with cooperative cancellation.
func (v *CosineVerifier) VerifyQueryLiteStop(q QuerySig, ids []int32, h int, sim QuerySimFunc, stop *shard.Stopper) ([]pair.Hit, Stats, error) {
	hits, st := v.k.verifyQueryLite(ids, h, v.qmatch(q), sim, stop)
	return stopResultHits(hits, st, stop)
}

// qmatch builds the 1-bit Jaccard one-sided match hook (the query's
// minhashes packed to one bit each, see minhash.PackOneBit).
func (v *OneBitJaccardVerifier) qmatch(q QuerySig) func(id int32, from, to int) int {
	return func(id int32, from, to int) int {
		return sighash.MatchCount(q.Bits, v.sigs[id], from, to)
	}
}

// VerifyQuery runs BayesLSH for the packed 1-bit query signature
// (q.Bits) against the candidate corpus ids.
func (v *OneBitJaccardVerifier) VerifyQuery(q QuerySig, ids []int32) ([]pair.Hit, Stats) {
	return v.k.verifyQuery(ids, v.qmatch(q), nil)
}

// VerifyQueryLite runs BayesLSH-Lite pruning over packed 1-bit query
// signatures, then verifies survivors exactly with sim.
func (v *OneBitJaccardVerifier) VerifyQueryLite(q QuerySig, ids []int32, h int, sim QuerySimFunc) ([]pair.Hit, Stats) {
	return v.k.verifyQueryLite(ids, h, v.qmatch(q), sim, nil)
}

// VerifyQueryStop is VerifyQuery with cooperative cancellation.
func (v *OneBitJaccardVerifier) VerifyQueryStop(q QuerySig, ids []int32, stop *shard.Stopper) ([]pair.Hit, Stats, error) {
	hits, st := v.k.verifyQuery(ids, v.qmatch(q), stop)
	return stopResultHits(hits, st, stop)
}

// VerifyQueryLiteStop is VerifyQueryLite with cooperative cancellation.
func (v *OneBitJaccardVerifier) VerifyQueryLiteStop(q QuerySig, ids []int32, h int, sim QuerySimFunc, stop *shard.Stopper) ([]pair.Hit, Stats, error) {
	hits, st := v.k.verifyQueryLite(ids, h, v.qmatch(q), sim, stop)
	return stopResultHits(hits, st, stop)
}
