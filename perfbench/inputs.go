package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"

	"plsh"
	"plsh/internal/corpus"
	"plsh/internal/rng"
	"plsh/internal/sparse"
)

// inputs is everything a workload sends to the system, generated from the
// seed alone. Document i of the generator's copy is the i-th document the
// workload inserts; the first nPre are the preload.
type inputs struct {
	docs    []sparse.Vector
	nPre    int
	queries []sparse.Vector // pool the measured phase cycles through
	recallQ []sparse.Vector // fixed sample for recall and replays
	digest  string
}

// genInputs draws nPre+nStream tweets from the Twitter corpus preset, a
// query pool of nQueries preload documents, and a recall sample of
// nRecall documents from the whole set. Queries are stored documents, as
// in the paper's evaluation (§8: "a random subset of tweets from the
// database").
func genInputs(seed uint64, nPre, nStream, nQueries, nRecall int) *inputs {
	col := corpus.Generate(corpus.Twitter(nPre+nStream, dim, seed))
	in := &inputs{docs: make([]sparse.Vector, col.Mat.Rows()), nPre: nPre}
	for i := range in.docs {
		in.docs[i] = col.Mat.Row(i)
	}
	src := rng.New(seed ^ 0x9e3779b97f4a7c15)
	for range nQueries {
		in.queries = append(in.queries, in.docs[src.Intn(nPre)])
	}
	for range nRecall {
		in.recallQ = append(in.recallQ, in.docs[src.Intn(len(in.docs))])
	}
	h := sha256.New()
	var buf [8]byte
	put := func(vs []sparse.Vector) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(len(v.Idx)))
			h.Write(buf[:])
			for i := range v.Idx {
				binary.LittleEndian.PutUint32(buf[:4], v.Idx[i])
				binary.LittleEndian.PutUint32(buf[4:], math.Float32bits(v.Val[i]))
				h.Write(buf[:])
			}
		}
	}
	put(in.docs)
	put(in.queries)
	put(in.recallQ)
	in.digest = hex.EncodeToString(h.Sum(nil)[:12])
	return in
}

// batches splits vs into consecutive batches of size n.
func batches(vs []sparse.Vector, n int) [][]sparse.Vector {
	var out [][]sparse.Vector
	for i := 0; i < len(vs); i += n {
		out = append(out, vs[i:min(i+n, len(vs))])
	}
	return out
}

// Distance checks work in dot-product space: near a distance of 0 the
// arccos amplifies float32 rounding of a self-match into ~5e-4 rad, while
// the dot product itself agrees to ~1e-6.
const dotTol = 1e-4

var cosR = math.Cos(radius)

// verifyMatches checks one answer: every match is a document the
// workload inserted (doc resolves its ID), lies within the radius when
// recomputed exactly from the generator's copy, reports that distance,
// and the list is ordered by (distance, ID).
func verifyMatches(q sparse.Vector, ms []plsh.Match, doc func(id uint64) (sparse.Vector, bool)) error {
	for i, m := range ms {
		d, ok := doc(m.ID)
		if !ok {
			return fmt.Errorf("match id %d was never inserted", m.ID)
		}
		dot := sparse.Dot(q, d)
		if dot < cosR-dotTol {
			return fmt.Errorf("match id %d: exact distance %.5f exceeds radius %.2f", m.ID, sparse.AngularDistance(dot), radius)
		}
		if math.Abs(math.Cos(m.Dist)-dot) > dotTol {
			return fmt.Errorf("match id %d: reported distance %.5f, exact %.5f", m.ID, m.Dist, sparse.AngularDistance(dot))
		}
		if i > 0 && (ms[i-1].Dist > m.Dist || ms[i-1].Dist == m.Dist && ms[i-1].ID >= m.ID) {
			return fmt.Errorf("matches out of (distance, id) order at position %d", i)
		}
	}
	return nil
}

// oracle answers R-near queries exactly over a set of documents by
// scoring every document that shares a term with the query — the
// exhaustive scan, restricted to the only documents whose dot product
// can be nonzero.
type oracle struct {
	docs []sparse.Vector
	post map[uint32][]posting
	acc  []float64
	hit  []bool
}

type posting struct {
	doc int32
	val float32
}

func newOracle(docs []sparse.Vector) *oracle {
	o := &oracle{docs: docs, post: map[uint32][]posting{}, acc: make([]float64, len(docs)), hit: make([]bool, len(docs))}
	for i, d := range docs {
		for k, t := range d.Idx {
			o.post[t] = append(o.post[t], posting{int32(i), d.Val[k]})
		}
	}
	return o
}

// near returns the indexes of the live documents within the radius of q,
// ascending.
func (o *oracle) near(q sparse.Vector, live func(i int) bool) []int32 {
	var touched []int32
	for k, t := range q.Idx {
		w := float64(q.Val[k])
		for _, p := range o.post[t] {
			if !o.hit[p.doc] {
				o.hit[p.doc] = true
				touched = append(touched, p.doc)
			}
			o.acc[p.doc] += w * float64(p.val)
		}
	}
	var out []int32
	for _, i := range touched {
		// Documents near the boundary are rescored exactly as the checks
		// score them, so that the oracle and verifyMatches agree.
		if o.acc[i] >= cosR-dotTol && live(int(i)) && sparse.Dot(q, o.docs[i]) >= cosR {
			out = append(out, i)
		}
		o.acc[i], o.hit[i] = 0, false
	}
	slices.Sort(out)
	return out
}

// recallCounter accumulates found/true neighbor counts over a sample.
type recallCounter struct{ hits, total int }

// add scores one answer (document indexes found) against the truth.
func (r *recallCounter) add(found []int32, truth []int32) {
	slices.Sort(found)
	r.total += len(truth)
	i := 0
	for _, f := range found {
		for i < len(truth) && truth[i] < f {
			i++
		}
		if i < len(truth) && truth[i] == f {
			r.hits++
		}
	}
}

func (r *recallCounter) value() float64 {
	if r.total == 0 {
		return 1
	}
	return float64(r.hits) / float64(r.total)
}
