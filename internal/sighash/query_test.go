package sighash

import (
	"testing"

	"bayeslsh/internal/testutil"
	"bayeslsh/internal/vector"
)

// TestSignatureNMatchesStore checks the query-hashing contract: a
// one-shot SignatureN, and a LazySig grown in irregular steps, over a
// corpus vector reproduce the lazily filled store signature bit for
// bit at every depth — for quantized and Exact families, and for a
// query whose out-of-vocabulary features were truncated to the
// family's Dim (what the serving path hands the family).
func TestSignatureNMatchesStore(t *testing.T) {
	c := testutil.SmallTextCorpus(t, 40, 21)
	requirePrefix := func(t *testing.T, what string, i int, q []uint64, st *Store, nbits int) {
		t.Helper()
		for w := 0; w < nbits/64; w++ {
			if q[w] != st.Sigs()[i][w] {
				t.Fatalf("%s: %d bits, vector %d word %d: query %x, store %x",
					what, nbits, i, w, q[w], st.Sigs()[i][w])
			}
		}
	}
	// oov appends features beyond the family's Dim; truncated keeps the
	// in-vocabulary prefix, as the serving path's restrictToDim does.
	oov := func(v vector.Vector) vector.Vector {
		ind := append(append([]uint32{}, v.Ind...), uint32(c.Dim), uint32(c.Dim+7))
		val := append(append([]float64{}, v.Val...), 0.5, -0.25)
		return vector.Vector{Ind: ind, Val: val}
	}
	truncated := func(v vector.Vector, dim int) vector.Vector {
		k := 0
		for k < v.Len() && int(v.Ind[k]) < dim {
			k++
		}
		return vector.Vector{Ind: v.Ind[:k], Val: v.Val[:k]}
	}
	for _, fc := range []struct {
		name     string
		opts     []Option
		truncate bool
	}{
		{"quantized", nil, false},
		{"exact", []Option{Exact()}, false},
		{"truncated", nil, true},
	} {
		t.Run(fc.name, func(t *testing.T) {
			fam := NewBlockFamily(c.Dim, 1024, 128, 99, fc.opts...)
			st := NewStore(c, fam)
			st.EnsureAll(1024)
			query := func(v vector.Vector) vector.Vector {
				if fc.truncate {
					return truncated(oov(v), fam.Dim())
				}
				return v
			}
			for _, nbits := range []int{128, 256, 512} {
				for i, v := range c.Vecs {
					requirePrefix(t, "SignatureN", i, fam.SignatureN(query(v), nbits), st, nbits)
				}
			}
			for i, v := range c.Vecs {
				lazy := fam.NewLazySig(query(v), fam.MaxBits())
				for _, step := range []int{100, 129, 640, fam.MaxBits()} {
					lazy.Ensure(step)
					filled := (step + 127) / 128 * 128
					if lazy.FilledBits() != filled {
						t.Fatalf("vector %d: Ensure(%d) filled %d bits, want %d", i, step, lazy.FilledBits(), filled)
					}
					requirePrefix(t, "LazySig", i, lazy.Words(), st, filled)
				}
			}
		})
	}
	// Partial-block requests round up to whole blocks.
	fam := NewBlockFamily(c.Dim, 512, 128, 99)
	if got := len(fam.SignatureN(c.Vecs[0], 100)); got != 2 {
		t.Fatalf("SignatureN(100) returned %d words, want 2 (one 128-bit block)", got)
	}
}
