package core

import (
	"fmt"
	"math"
	"testing"

	"plsh/internal/bitvec"
	"plsh/internal/corpus"
	"plsh/internal/lshhash"
	"plsh/internal/sparse"
)

// refSearch is the query loop as it stood before the probe and verify
// passes were split for memory-level parallelism: one table at a time,
// each bucket read and marked as soon as its key is known, then one
// candidate at a time, each row fetched and verified before the next. It
// is the oracle the restructured engine must match answer for answer,
// bit for bit and in order.
func refSearch(st *Static, store sparse.Store, opts QueryOptions, deleted *bitvec.Vector, q sparse.Vector, p SearchParams) ([]Neighbor, QueryStats) {
	var stats QueryStats
	if st.Len() == 0 || q.NNZ() == 0 {
		return nil, stats
	}
	if opts.Radius <= 0 {
		opts.Radius = 0.9
	}
	if opts.ExtractCandidates && !opts.UseBitvector {
		opts.ExtractCandidates = false
	}
	hp := st.fam.Params()
	half := uint(hp.K / 2)
	sketch := st.fam.Sketch(q)
	key := func(l int) uint32 {
		a, b := lshhash.PairForTable(l, hp.M)
		return sketch[a]<<half | sketch[b]
	}
	var cand []uint32
	if opts.UseBitvector {
		seen := bitvec.New(st.Len())
		for l := range st.tables {
			bucket := st.tables[l].Bucket(key(l))
			stats.Collisions += len(bucket)
			for _, id := range bucket {
				if opts.ExtractCandidates {
					seen.Set(int(id))
				} else if seen.TestAndSet(int(id)) {
					cand = append(cand, id)
				}
			}
		}
		if opts.ExtractCandidates {
			cand = seen.AppendSet(cand)
		}
	} else {
		set := map[uint32]struct{}{}
		for l := range st.tables {
			bucket := st.tables[l].Bucket(key(l))
			stats.Collisions += len(bucket)
			for _, id := range bucket {
				set[id] = struct{}{}
			}
		}
		for id := range set {
			cand = append(cand, id)
		}
	}
	radius := opts.Radius
	if p.Radius > 0 {
		radius = p.Radius
	}
	thr := sparse.CosThreshold(radius)
	var mask *sparse.QueryMask
	if opts.OptimizedDP {
		mask = sparse.NewQueryMask(store.Dimension())
		mask.Scatter(q)
	}
	var out []Neighbor
	evaluated := 0
	for _, id := range cand {
		if deleted != nil && deleted.TestAtomic(int(id)) {
			continue
		}
		if p.MaxCandidates > 0 && evaluated == p.MaxCandidates {
			break
		}
		evaluated++
		idx, val := store.Doc(int(id))
		var dot float64
		if mask != nil {
			dot = mask.Dot(idx, val)
		} else {
			dot = sparse.Dot(q, sparse.Vector{Idx: idx, Val: val})
		}
		if dot >= thr {
			out = append(out, Neighbor{ID: id, Dist: sparse.AngularDistance(dot)})
		}
	}
	stats.Unique = evaluated
	stats.Results = len(out)
	return out, stats
}

// equivalenceArms are the Fig. 5 option sets, plus the prefetching arm
// over the merge-intersection dot product so the chunked verify runs
// both kernels.
func equivalenceArms() []QueryOptions {
	return []QueryOptions{
		{Radius: 0.9},
		{Radius: 0.9, UseBitvector: true},
		{Radius: 0.9, UseBitvector: true, OptimizedDP: true},
		{Radius: 0.9, UseBitvector: true, ExtractCandidates: true},
		QueryDefaults(),
	}
}

// sameAnswers fails unless got and want hold the same IDs with the same
// distance bit patterns. ordered requires the same order too; the set arm
// iterates a map, so only its sorted answers are comparable.
func sameAnswers(t *testing.T, what string, got, want []Neighbor, ordered bool) {
	t.Helper()
	if !ordered {
		got = append([]Neighbor(nil), got...)
		want = append([]Neighbor(nil), want...)
		SortNeighbors(got)
		SortNeighbors(want)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("%s: answer %d is %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// checkEquivalent runs every arm over every query and request against
// refSearch, and checks each answer against the exhaustive scan: a true
// neighbor there, at the same distance bits, and not tombstoned.
func checkEquivalent(t *testing.T, st *Static, mat *sparse.Matrix, deleted *bitvec.Vector, queries []sparse.Vector, params []SearchParams) {
	t.Helper()
	stores := []sparse.Store{mat, sparse.NewScatteredStore(mat)}
	for ai, opts := range equivalenceArms() {
		for si, store := range stores {
			eng := NewEngine(st, store, opts)
			eng.SetDeleted(deleted)
			for qi, q := range queries {
				for _, p := range params {
					what := fmt.Sprintf("arm %d store %d query %d params %+v", ai, si, qi, p)
					got, gs := eng.SearchWithStats(q, p)
					// The set arm visits candidates in map order, so under
					// a budget it evaluates an arbitrary subset.
					if opts.UseBitvector || p.MaxCandidates == 0 {
						want, ws := refSearch(st, store, opts, deleted, q, p)
						if gs != ws {
							t.Fatalf("%s: stats %+v, want %+v", what, gs, ws)
						}
						sameAnswers(t, what, got, want, opts.UseBitvector)
					}
					radius := opts.Radius
					if p.Radius > 0 {
						radius = p.Radius
					}
					exact := map[uint32]uint64{}
					for _, nb := range ExactNeighbors(mat, q, radius) {
						exact[nb.ID] = math.Float64bits(nb.Dist)
					}
					for _, nb := range got {
						if bits, ok := exact[nb.ID]; !ok || bits != math.Float64bits(nb.Dist) {
							t.Fatalf("%s: answer %+v is not an exhaustive-scan neighbor at the same distance", what, nb)
						}
						if deleted != nil && deleted.TestAtomic(int(nb.ID)) {
							t.Fatalf("%s: tombstoned %d answered", what, nb.ID)
						}
					}
				}
			}
		}
	}
}

// equivFixture is a K=8, M=8 index (28 tables of 256 buckets) over a
// small Twitter-like corpus with planted near-duplicates, so queries have
// both answers and hundreds of candidates (several verify chunks each).
func equivFixture(t *testing.T, n int) (*lshhash.Family, *sparse.Matrix, []sparse.Vector) {
	t.Helper()
	fam, err := lshhash.NewFamily(lshhash.Params{Dim: 2000, K: 8, M: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cfg := corpus.Twitter(n, 2000, 7)
	cfg.NearDupRate = 0.25
	c := corpus.Generate(cfg)
	qs := c.SampleQueries(12, 99)
	for i := 0; i < n; i += max(1, n/8) {
		qs = append(qs, c.Mat.Row(i)) // self-queries: answers guaranteed
	}
	return fam, c.Mat, qs
}

// equivParams cut the candidate stream at chunk boundaries and off them.
var equivParams = []SearchParams{
	{},
	{MaxCandidates: 1},
	{MaxCandidates: 7},
	{MaxCandidates: verifyChunk},
	{MaxCandidates: verifyChunk + 5},
	{MaxCandidates: 3*verifyChunk - 1},
	{Radius: 1.3},
}

func TestProbeVerifyEquivalence(t *testing.T) {
	fam, mat, qs := equivFixture(t, 600)
	build := func() *Static {
		st, err := Build(fam, mat, Defaults())
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	t.Run("plain", func(t *testing.T) {
		checkEquivalent(t, build(), mat, nil, qs, equivParams)
	})
	t.Run("tombstones", func(t *testing.T) {
		// Every third row is deleted: budgets must skip them for free,
		// including runs of tombstones inside one chunk.
		del := bitvec.New(mat.Rows())
		for i := 0; i < mat.Rows(); i += 3 {
			del.SetAtomic(i)
		}
		checkEquivalent(t, build(), mat, del, qs, equivParams)
	})
	t.Run("compacted", func(t *testing.T) {
		st := build()
		st.Compact(func(id uint32) bool { return id%4 == 1 }, 2)
		checkEquivalent(t, st, mat, nil, qs, equivParams)
	})
	t.Run("compacted-empty", func(t *testing.T) {
		// Compact drops every row: each table's Items is empty, so every
		// bucket starts at len(Items) == 0.
		st := build()
		st.Compact(func(uint32) bool { return true }, 2)
		for l := range st.tables {
			if len(st.tables[l].Items) != 0 {
				t.Fatal("Compact left items behind")
			}
		}
		checkEquivalent(t, st, mat, nil, qs, equivParams)
	})
	t.Run("capped", func(t *testing.T) {
		st := build()
		st.CapBuckets(2, 5, 2)
		checkEquivalent(t, st, mat, nil, qs, equivParams)
	})
}

// TestProbeVerifyEdgeBuckets builds tables by hand around one query's
// keys, so the buckets it reads are, per table: the last non-empty bucket
// (ending exactly at len(Items)); an empty bucket past every item (it
// starts at len(Items)); an ordinary bucket; and a table with no items
// at all.
func TestProbeVerifyEdgeBuckets(t *testing.T) {
	fam, mat, qs := equivFixture(t, 200)
	p := fam.Params()
	half := uint(p.K / 2)
	q := qs[len(qs)-1]
	sketch := fam.Sketch(q)
	n := mat.Rows()
	tables := make([]Table, p.L())
	for l := range tables {
		a, b := lshhash.PairForTable(l, p.M)
		kq := int(sketch[a]<<half | sketch[b])
		bucketOf := func(id int) int {
			switch l % 4 {
			case 0: // q's bucket is the last non-empty one
				if id%2 == 0 {
					return kq
				}
				return id % (kq + 1)
			case 1: // q's bucket is empty and past every item
				if kq == 0 {
					return -1
				}
				return id % kq
			case 2: // ordinary spread
				return (id * 7) % p.Buckets()
			default: // empty table
				return -1
			}
		}
		offs := make([]uint32, p.Buckets()+1)
		var items []uint32
		for bk := 0; bk < p.Buckets(); bk++ {
			offs[bk] = uint32(len(items))
			for id := 0; id < n; id++ {
				if bucketOf(id) == bk {
					items = append(items, uint32(id))
				}
			}
		}
		offs[p.Buckets()] = uint32(len(items))
		if l%4 == 0 && int(offs[kq+1]) != len(items) {
			t.Fatalf("table %d: q's bucket does not end at len(Items)", l)
		}
		tables[l] = Table{Offsets: offs, Items: items}
	}
	st, err := StaticFromTables(fam, n, tables)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, st, mat, nil, qs, equivParams)
}

func TestProbeVerifyOneDocument(t *testing.T) {
	fam, mat, qs := equivFixture(t, 200)
	one := mat.Prefix(1)
	st, err := Build(fam, one, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, st, one, nil, append(qs, one.Row(0)), equivParams)
	res := NewEngine(st, one, QueryDefaults()).Query(one.Row(0))
	if len(res) != 1 || res[0].ID != 0 {
		t.Fatalf("one-document self-query answered %v", res)
	}
}
