// Package sighash implements the random-hyperplane LSH family for
// cosine similarity (Charikar, STOC'02), used by §4.2 of the BayesLSH
// paper: each hash function is a random Gaussian vector r, and
// h(x) = 1 iff dot(r, x) >= 0. For any pair,
//
//	Pr[h(a) = h(b)] = 1 − θ(a, b)/π
//
// where θ is the angle between a and b. RToCosine and CosineToR
// convert between that collision probability and cosine similarity
// (the paper's r2c/c2r functions).
//
// # Signatures and storage
//
// Signatures are packed bit vectors ([]uint64), so comparing hashes is
// XOR + popcount (MatchCount). The package also implements the paper's
// §4.3 storage optimization: Gaussian projection entries are quantized
// to two bytes each, x' = ⌊(x+8)·2¹⁶/16⌋, exploiting that standard
// normal samples essentially never leave (−8, 8); the Exact option
// switches back to float64 projections for ablations.
//
// # Lazy, deterministic hashing
//
// Two family types serve the two access patterns. Family materializes
// all projections up front. BlockFamily generates hash functions in
// blocks (rounded to 64-bit words), materializing a block's
// projections only when some signature first needs it — the paper's
// "each point is only hashed as many times as is necessary" — and
// Store caches per-vector signatures over a BlockFamily, extending
// them block-by-block as verification demands deeper prefixes. Every
// block derives from an independent stream keyed by (seed, feature,
// block), so signatures are bit-identical regardless of which
// goroutine materializes what in which order; Store is safe for
// concurrent use (synchronization via shard.Fill).
//
// # Query hashing
//
// LazySig hashes a single out-of-corpus vector against the same
// streams, the entry point of the engine's query-serving index. Like
// Store it fills block by block, so a served query is hashed only as
// deep as its deepest surviving candidate is compared; a query equal
// to a corpus vector hashes to exactly that vector's stored signature
// prefix. BlockFamily.SignatureN is a LazySig filled in one call.
package sighash
