// Snapshot codec of the built band tables. Buckets are written in
// ascending key order so the same build always produces the same
// bytes (Go map iteration order would otherwise shuffle them run to
// run); decoding validates band shape and id ranges so a corrupt
// snapshot fails cleanly instead of producing out-of-range probes.

package lshindex

import (
	"sort"

	"bayeslsh/internal/snapshot"
)

// WriteSnapshot serializes the tables: band shape, then per band the
// bucket count and each bucket's key and ids in ascending key order.
func (t *BitsTables) WriteSnapshot(w *snapshot.Writer) {
	w.U32(uint32(t.k))
	w.U32(uint32(t.l))
	w.Bool(t.multiProbe)
	writeBuckets(w, t.tables)
}

// ReadBitsTablesSnapshot decodes tables written by
// BitsTables.WriteSnapshot over a corpus of n vectors.
func ReadBitsTablesSnapshot(r *snapshot.Reader, n int) (*BitsTables, error) {
	t := &BitsTables{k: int(r.U32()), l: int(r.U32()), n: n, multiProbe: r.Bool()}
	if r.Err() == nil && (t.k < 1 || t.k > 64 || t.l < 1) {
		return nil, snapshot.Failf(r, "band shape k=%d l=%d", t.k, t.l)
	}
	var err error
	if t.tables, err = readBuckets(r, t.l, n); err != nil {
		return nil, err
	}
	return t, nil
}

// WriteSnapshot serializes the tables: band shape, then per band the
// bucket count and each bucket's key and ids in ascending key order.
func (t *MinhashTables) WriteSnapshot(w *snapshot.Writer) {
	w.U32(uint32(t.k))
	w.U32(uint32(t.l))
	writeBuckets(w, t.tables)
}

// ReadMinhashTablesSnapshot decodes tables written by
// MinhashTables.WriteSnapshot over a corpus of n vectors.
func ReadMinhashTablesSnapshot(r *snapshot.Reader, n int) (*MinhashTables, error) {
	t := &MinhashTables{k: int(r.U32()), l: int(r.U32()), n: n}
	if r.Err() == nil && (t.k < 1 || t.l < 1) {
		return nil, snapshot.Failf(r, "band shape k=%d l=%d", t.k, t.l)
	}
	var err error
	if t.tables, err = readBuckets(r, t.l, n); err != nil {
		return nil, err
	}
	return t, nil
}

// writeBuckets serializes per-band bucket maps in ascending key order.
func writeBuckets(w *snapshot.Writer, tables []map[uint64][]int32) {
	for _, buckets := range tables {
		keys := make([]uint64, 0, len(buckets))
		for k := range buckets {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		w.U64(uint64(len(keys)))
		for _, k := range keys {
			w.U64(k)
			w.I32s(buckets[k])
		}
	}
}

// readBuckets decodes l per-band bucket maps, validating that every
// bucketed id addresses one of the n corpus vectors. Like every other
// decoded length, l is bounded by the bytes actually present (each
// band carries at least its 8-byte bucket count) before any
// allocation, so a forged band count cannot over-allocate.
func readBuckets(r *snapshot.Reader, l, n int) ([]map[uint64][]int32, error) {
	if l < 1 || r.Err() != nil {
		return nil, r.Err()
	}
	if l > r.Remaining()/8 {
		return nil, snapshot.Failf(r, "band count %d exceeds remaining %d bytes", l, r.Remaining())
	}
	tables := make([]map[uint64][]int32, l)
	for band := range tables {
		nb := r.Len(16) // per bucket: key + id-count prefix
		if r.Err() != nil {
			return nil, r.Err()
		}
		buckets := make(map[uint64][]int32, nb)
		for i := 0; i < nb; i++ {
			key := r.U64()
			ids := r.I32s()
			if r.Err() != nil {
				return nil, r.Err()
			}
			for _, id := range ids {
				if id < 0 || int(id) >= n {
					return nil, snapshot.Failf(r, "band %d bucket %d: id %d outside corpus of %d", band, i, id, n)
				}
			}
			if _, dup := buckets[key]; dup {
				return nil, snapshot.Failf(r, "band %d: duplicate bucket key %d", band, key)
			}
			buckets[key] = ids
		}
		tables[band] = buckets
	}
	return tables, nil
}
