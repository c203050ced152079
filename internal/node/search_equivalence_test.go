package node

import (
	"fmt"
	"math"
	"testing"

	"plsh/internal/bitvec"
	"plsh/internal/core"
	"plsh/internal/sparse"
)

// refSearchOn is node search as it stood before the query was hashed
// once for static and delta alike: the static engine answers first, then
// the query is hashed again and its mask scattered again for the delta
// segments, whose candidates are verified one at a time by a loop of
// their own, spending what is left of the candidate budget.
func refSearchOn(n *Node, s *snapshot, q sparse.Vector, p SearchParams) []core.Neighbor {
	if q.NNZ() == 0 {
		return nil
	}
	res, stats := s.eng.SearchWithStats(q, core.SearchParams{Radius: p.Radius, MaxCandidates: p.MaxCandidates})
	if len(s.segs) == 0 {
		return res
	}
	budget := 0
	if p.MaxCandidates > 0 {
		budget = p.MaxCandidates - stats.Unique
		if budget <= 0 {
			return res
		}
	}
	radius := n.cfg.Query.Radius
	if p.Radius > 0 {
		radius = p.Radius
	}
	sketch := n.fam.Sketch(q)
	thr := sparse.CosThreshold(radius)
	var mask *sparse.QueryMask
	if n.cfg.Query.OptimizedDP {
		mask = sparse.NewQueryMask(n.cfg.Params.Dim)
		mask.Scatter(q)
	}
	for _, sg := range s.segs {
		seen := bitvec.New(sg.t.Len())
		cand, _ := sg.t.Candidates(sketch, seen, nil)
		for _, localID := range cand {
			globalID := uint32(sg.base) + localID
			if s.deleted.TestAtomic(int(globalID)) {
				continue
			}
			idx, val := s.store.Doc(int(globalID))
			var dot float64
			if mask != nil {
				dot = mask.Dot(idx, val)
			} else {
				dot = sparse.Dot(q, sparse.Vector{Idx: idx, Val: val})
			}
			if dot >= thr {
				res = append(res, core.Neighbor{ID: globalID, Dist: sparse.AngularDistance(dot)})
			}
			if p.MaxCandidates > 0 {
				if budget--; budget == 0 {
					return res
				}
			}
		}
	}
	return res
}

// TestSearchDeltaEquivalence: a node holding a static index plus several
// delta segments, with tombstones in both, answers every query exactly as
// the pre-change loop does — same IDs, same distance bits, same raw order
// — under every option arm and across candidate budgets that run out in
// the static part, mid-segment and not at all. Every answer is also a
// true neighbor by exhaustive scan at the same distance bits.
func TestSearchDeltaEquivalence(t *testing.T) {
	docs := testDocs(695, 61)
	for _, query := range []core.QueryOptions{
		core.QueryDefaults(),
		{Radius: 0.9, UseBitvector: true, OptimizedDP: true},
		{Radius: 0.9, UseBitvector: true, ExtractCandidates: true},
	} {
		cfg := testConfig(2000)
		cfg.AutoMerge = false
		cfg.Query = query
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Insert(bg, docs[:400]); err != nil {
			t.Fatal(err)
		}
		mustMerge(t, n)
		// Each batch is under half the one before, so coalescing keeps
		// them as separate segments.
		lo := 400
		for _, size := range []int{200, 70, 25} {
			if _, err := n.Insert(bg, docs[lo:lo+size]); err != nil {
				t.Fatal(err)
			}
			lo += size
		}
		for id := uint32(3); id < uint32(len(docs)); id += 7 {
			if err := n.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		s := n.snap.Load()
		if len(s.segs) != 3 || s.nStatic != 400 {
			t.Fatalf("want a static index and several segments, got static=%d segs=%d", s.nStatic, len(s.segs))
		}
		for qi := 0; qi < len(docs); qi += 23 {
			q := docs[qi]
			for _, p := range []SearchParams{{}, {MaxCandidates: 5}, {MaxCandidates: 40}, {MaxCandidates: 300}, {Radius: 1.2}} {
				what := fmt.Sprintf("options %+v query %d params %+v", query, qi, p)
				got := n.searchOn(nil, s, q, p)
				want := refSearchOn(n, s, q, p)
				if len(got) != len(want) {
					t.Fatalf("%s: %d answers, want %d", what, len(got), len(want))
				}
				for i := range want {
					if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
						t.Fatalf("%s: answer %d is %+v, want %+v", what, i, got[i], want[i])
					}
				}
				radius := query.Radius
				if p.Radius > 0 {
					radius = p.Radius
				}
				exact := map[uint32]uint64{}
				for _, nb := range core.ExactNeighbors(s.store, q, radius) {
					exact[nb.ID] = math.Float64bits(nb.Dist)
				}
				for _, nb := range got {
					if bits, ok := exact[nb.ID]; !ok || bits != math.Float64bits(nb.Dist) || s.deleted.TestAtomic(int(nb.ID)) {
						t.Fatalf("%s: answer %+v is not a live exhaustive-scan neighbor at the same distance", what, nb)
					}
				}
			}
		}
	}
}
