package lshindex_test

import (
	"bytes"
	"slices"
	"testing"

	"bayeslsh/internal/allpairs"
	"bayeslsh/internal/lshindex"
	"bayeslsh/internal/rng"
	"bayeslsh/internal/snapshot"
	"bayeslsh/internal/vector"
)

// Inputs for the probe dedup test: few bits per band and few minhash
// values, so every probe meets the same ids in many bands and
// multi-probe neighbours.
const (
	dedupN     = 300
	dedupBound = 250 // delta visibility bound
	dedupK     = 4
	dedupL     = 16
)

func dedupBits() [][]uint64 {
	src := rng.New(11)
	sigs := make([][]uint64, dedupN)
	for i := range sigs {
		sigs[i] = []uint64{src.Uint64()}
	}
	return sigs
}

func dedupMins() [][]uint32 {
	src := rng.New(12)
	sigs := make([][]uint32, dedupN)
	for i := range sigs {
		s := make([]uint32, 2*dedupL)
		for j := range s {
			s[j] = uint32(src.Intn(3))
		}
		sigs[i] = s
	}
	return sigs
}

func dedupVecs() []vector.Vector {
	src := rng.New(13)
	vecs := make([]vector.Vector, dedupN)
	for i := range vecs {
		m := map[uint32]float64{}
		for j := 0; j < 3+src.Intn(4); j++ {
			m[uint32(src.Intn(40))] = 1
		}
		vecs[i] = vector.FromMap(m)
	}
	return vecs
}

// fixedBytes serializes a table set's fixed section, the payload a
// mapped view is laid over.
func fixedBytes(t *testing.T, write func(*snapshot.Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := snapshot.NewWriter(&buf)
	write(w)
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	return buf.Bytes()
}

// mapSortRef is the reference dedup: a map seen-set of every id the
// collision rule admits, flattened and sorted.
func mapSortRef(n int, collides func(id int) bool) []int32 {
	seen := map[int32]struct{}{}
	for id := 0; id < n; id++ {
		if collides(id) {
			seen[int32(id)] = struct{}{}
		}
	}
	var ids []int32
	for id := range seen {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// bandBits returns bits [band*k, (band+1)*k) of a one-word signature.
func bandBits(sig []uint64, band int) uint64 {
	return sig[0] >> (band * dedupK) & (1<<dedupK - 1)
}

// bitsCollide is the banding rule: some band key equal, or with
// multi-probe at Hamming distance at most one.
func bitsCollide(q, s []uint64, multiProbe bool) bool {
	for band := 0; band < dedupL; band++ {
		d := bandBits(q, band) ^ bandBits(s, band)
		if d == 0 || multiProbe && d&(d-1) == 0 {
			return true
		}
	}
	return false
}

func minsCollide(q, s []uint32) bool {
	for band := 0; band < dedupL; band++ {
		if slices.Equal(q[2*band:2*band+2], s[2*band:2*band+2]) {
			return true
		}
	}
	return false
}

func shareFeature(q, v vector.Vector) bool {
	for _, f := range q.Ind {
		if slices.Contains(v.Ind, f) {
			return true
		}
	}
	return false
}

// TestProbeDedupOrder runs every point probe — built and mapped
// tables, both deltas, the AllPairs delta — over inputs where ids
// repeat across bands and multi-probe neighbours. Each result must be
// strictly ascending and equal to the map+sort reference.
func TestProbeDedupOrder(t *testing.T) {
	bits, mins, vecs := dedupBits(), dedupMins(), dedupVecs()
	type probeCase struct {
		name       string
		probe, ref func(q int) []int32
	}
	var probes []probeCase
	add := func(name string, probe, ref func(q int) []int32) {
		probes = append(probes, probeCase{name, probe, ref})
	}
	for _, mp := range []bool{false, true} {
		tables, err := lshindex.BuildBits(bits, dedupK, dedupL, 2, mp)
		if err != nil {
			t.Fatal(err)
		}
		view, err := lshindex.OpenBitsView(fixedBytes(t, tables.WriteFixedSection), dedupN)
		if err != nil {
			t.Fatal(err)
		}
		delta := lshindex.NewBitsDelta(dedupK, dedupL, mp)
		for id, s := range bits {
			delta.Add(int32(id), s)
		}
		ref := func(n int) func(q int) []int32 {
			return func(q int) []int32 {
				return mapSortRef(n, func(id int) bool { return bitsCollide(bits[q], bits[id], mp) })
			}
		}
		suffix := map[bool]string{false: "", true: "/multiprobe"}[mp]
		add("BitsTables"+suffix, func(q int) []int32 { return tables.Probe(bits[q]) }, ref(dedupN))
		add("BitsView"+suffix, func(q int) []int32 { return view.Probe(bits[q]) }, ref(dedupN))
		add("BitsDelta"+suffix, func(q int) []int32 { return delta.Probe(bits[q], dedupBound) }, ref(dedupBound))
	}
	mtables, err := lshindex.BuildMinhash(mins, 2, dedupL, 2)
	if err != nil {
		t.Fatal(err)
	}
	mview, err := lshindex.OpenMinhashView(fixedBytes(t, mtables.WriteFixedSection), dedupN)
	if err != nil {
		t.Fatal(err)
	}
	mdelta := lshindex.NewMinhashDelta(2, dedupL)
	apDelta := allpairs.NewDelta()
	for id := range mins {
		mdelta.Add(int32(id), mins[id])
		apDelta.Add(int32(id), vecs[id])
	}
	mref := func(n int) func(q int) []int32 {
		return func(q int) []int32 {
			return mapSortRef(n, func(id int) bool { return minsCollide(mins[q], mins[id]) })
		}
	}
	add("MinhashTables", func(q int) []int32 { return mtables.Probe(mins[q]) }, mref(dedupN))
	add("MinhashView", func(q int) []int32 { return mview.Probe(mins[q]) }, mref(dedupN))
	add("MinhashDelta", func(q int) []int32 { return mdelta.Probe(mins[q], dedupBound) }, mref(dedupBound))
	add("allpairs.Delta", func(q int) []int32 { return apDelta.Probe(vecs[q], dedupBound) }, func(q int) []int32 {
		return mapSortRef(dedupBound, func(id int) bool { return shareFeature(vecs[q], vecs[id]) })
	})

	for _, p := range probes {
		t.Run(p.name, func(t *testing.T) {
			total := 0
			for q := 0; q < dedupN; q++ {
				got, want := p.probe(q), p.ref(q)
				if !slices.Equal(got, want) {
					t.Fatalf("probe %d: %v, reference %v", q, got, want)
				}
				for j := 1; j < len(got); j++ {
					if got[j] <= got[j-1] {
						t.Fatalf("probe %d: ids not strictly ascending: %v", q, got)
					}
				}
				total += len(want)
			}
			if total == 0 {
				t.Fatal("no candidates: the input exercises nothing")
			}
		})
	}
}

// TestProbeAllocs bounds the allocations of one multi-probe bit-table
// probe over 16 bands: the dedup marker is allocated once per probe,
// never per band, and the result once. The view also grows the
// scratch its bucket runs decode into, by doubling (7 times here).
func TestProbeAllocs(t *testing.T) {
	bits := dedupBits()
	tables, err := lshindex.BuildBits(bits, dedupK, dedupL, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	view, err := lshindex.OpenBitsView(fixedBytes(t, tables.WriteFixedSection), dedupN)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		probe func([]uint64) []int32
		max   float64
	}{
		{"BitsTables", tables.Probe, 2},
		{"BitsView", view.Probe, 2 + 7},
	} {
		got := testing.AllocsPerRun(20, func() { c.probe(bits[7]) })
		if got > c.max {
			t.Errorf("%s.Probe: %v allocations, want at most %v", c.name, got, c.max)
		}
	}
}
