package core

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"plsh/internal/bitvec"
	"plsh/internal/lshhash"
	"plsh/internal/sched"
	"plsh/internal/sparse"
)

// Neighbor is one query answer: a document index and its angular distance.
type Neighbor struct {
	ID   uint32
	Dist float64
}

// QueryOptions selects the query-path optimizations of §5.2. The zero value
// is the fully unoptimized baseline of Fig. 5; QueryDefaults enables
// everything.
type QueryOptions struct {
	// Radius is the R-near-neighbor radius in radians (paper: 0.9).
	Radius float64
	// UseBitvector replaces set-based duplicate elimination with the
	// O(1)-per-index bitvector histogram (§5.2.1).
	UseBitvector bool
	// OptimizedDP replaces merge-intersection dot products with the dense
	// query vocabulary mask (§5.2.3).
	OptimizedDP bool
	// ExtractCandidates is the paper's "+sw prefetch" arm (§5.2.2). Step
	// Q2 reads every table's bucket bounds, then every bucket's first
	// item, before marking any candidate, and scans the marked bitvector
	// into a sorted dense array. Step Q3 then walks that array in chunks,
	// gathering and touching each chunk's rows before verifying them. Each
	// pass is a run of independent loads the core keeps in flight at
	// once, in place of one dependent cache miss per bucket and per row.
	// Requires UseBitvector.
	ExtractCandidates bool
	// Workers sets the pool size for batch queries; <= 0 means GOMAXPROCS.
	Workers int
	// CollectPhases accumulates per-phase wall time into Engine.Phases().
	CollectPhases bool
}

// QueryDefaults returns fully optimized query options with the paper's
// radius.
func QueryDefaults() QueryOptions {
	return QueryOptions{
		Radius:            0.9,
		UseBitvector:      true,
		OptimizedDP:       true,
		ExtractCandidates: true,
	}
}

// SearchParams are the request-scoped knobs of one query. The engine's
// QueryOptions fix the structural choices (dedup strategy, dot-product
// kernel, workers) at construction; SearchParams override the two values
// that heterogeneous traffic wants to vary per request without rebuilding
// anything. The zero value means "use the engine's configured defaults".
type SearchParams struct {
	// Radius overrides QueryOptions.Radius for this query when > 0. The
	// hash tables are radius-agnostic (only candidate filtering uses it),
	// so any radius is answerable by any engine; recall guarantees still
	// assume the (k, m) geometry was tuned for a radius near this one.
	Radius float64
	// MaxCandidates, when > 0, bounds how many unique candidates this
	// query evaluates distances for — the latency/recall trade for callers
	// that prefer a bounded answer over an exhaustive one. Candidates past
	// the bound are dropped unevaluated; QueryStats.Unique reports the
	// evaluated count.
	MaxCandidates int
}

// QueryStats counts the work a query performed, matching the quantities of
// the §7 model: Collisions is the total bucket-entry count over all L
// tables (duplicates included); Unique is the number of distance
// computations actually performed (deduplicated candidates, minus
// tombstoned ones and anything past the request's candidate budget);
// Results is the answer count.
type QueryStats struct {
	Collisions int
	Unique     int
	Results    int
}

// PhaseTimes accumulates wall time (ns) by query phase across an Engine's
// lifetime (only when CollectPhases is set). Workers run concurrently, so
// these are summed-across-workers phase times, suitable for the relative
// attribution of Fig. 6.
type PhaseTimes struct {
	Q2NS int64 // bucket reads + duplicate elimination (+ extraction scan)
	Q3NS int64 // candidate fetch + distance computation
}

// Engine answers R-near-neighbor queries against a Static index and a
// document store. Engines are safe for arbitrary concurrent use; query
// workspaces (candidate bitvector, vocabulary mask) are recycled through a
// sync.Pool, the Go analogue of the paper's per-thread private bitvectors.
type Engine struct {
	st      *Static
	store   sparse.Store
	opts    QueryOptions
	pool    *sched.Pool
	deleted *bitvec.Vector
	pairs   []tablePair // (a, b) per table, precomputed once
	wsPool  sync.Pool
	q2ns    atomic.Int64
	q3ns    atomic.Int64
}

// tablePair caches PairForTable so the hot Q2 loop composes each table's
// key with two array reads instead of an O(m) search.
type tablePair struct {
	a, b uint16
}

// verifyChunk is how many candidate rows Step Q3 gathers and touches
// before verifying any of them: the software-prefetch distance of
// §5.2.2. Sixteen rows put at least 32 independent cache lines in
// flight, few enough that the chunk is still cached when its dot
// products run. Chunks of 8 to 64 measured the same at 200k documents,
// where page walks, not miss buffers, bound the overlap.
const verifyChunk = 16

// Workspace is one in-flight query's private state: the query after Step
// Q1 (its sketch and, under OptimizedDP, its scattered vocabulary mask),
// the request's radius threshold and candidate budget, and the probe and
// verify scratch. Engine.Begin hands one out and Engine.End takes it
// back. Between the two, the static probe (Engine.SearchOn) and any
// other candidate source (Verify — the node's delta segments) share one
// hash, one mask scatter and one budget.
//
//plshvet:scratch owned per-query candidate/score buffers; the caller's query is dropped at End and nothing else caller-visible is stored
type Workspace struct {
	seen   *bitvec.Vector
	cand   []uint32
	set    map[uint32]struct{}
	mask   *sparse.QueryMask
	scores []float32
	sketch []uint32

	// lo and hi hold each table's bucket bounds, read by the first Q2 pass.
	lo, hi []uint32
	// docs holds one chunk of candidate rows gathered ahead of Q3.
	docs [verifyChunk]docRef
	// sink absorbs the touch passes' loads so the compiler keeps them.
	sink uint32

	q         sparse.Vector // the query; read only when OptimizedDP is off
	thr       float64       // cosine threshold of the request's radius
	maxCand   int           // SearchParams.MaxCandidates; <= 0 is unbounded
	evaluated int           // distance computations so far, all sources
	prefetch  bool          // ExtractCandidates: verify in gathered, touched chunks
}

// docRef is one gathered candidate row.
type docRef struct {
	idx []uint32
	val []float32
}

// NewEngine builds a query engine. The store must hold exactly the
// documents the index was built over (store row i ↔ index item i).
func NewEngine(st *Static, store sparse.Store, opts QueryOptions) *Engine {
	if opts.Radius <= 0 {
		opts.Radius = 0.9
	}
	if opts.ExtractCandidates && !opts.UseBitvector {
		opts.ExtractCandidates = false
	}
	e := &Engine{
		st:    st,
		store: store,
		opts:  opts,
		pool:  sched.NewPool(opts.Workers),
		pairs: make([]tablePair, st.NumTables()),
	}
	for l := range e.pairs {
		a, b := lshhash.PairForTable(l, st.fam.Params().M)
		e.pairs[l] = tablePair{a: uint16(a), b: uint16(b)}
	}
	e.wsPool.New = func() any {
		ws := &Workspace{
			seen:     bitvec.New(st.Len()),
			scores:   make([]float32, st.fam.Params().NumFuncs()),
			sketch:   make([]uint32, st.fam.Params().M),
			lo:       make([]uint32, st.NumTables()),
			hi:       make([]uint32, st.NumTables()),
			prefetch: opts.ExtractCandidates,
		}
		if !opts.UseBitvector {
			ws.set = make(map[uint32]struct{}, 1024)
		}
		if opts.OptimizedDP {
			ws.mask = sparse.NewQueryMask(store.Dimension())
		}
		return ws
	}
	return e
}

// Pool exposes the engine's worker pool so callers (the node layer) can
// schedule combined static+delta batches on it.
func (e *Engine) Pool() *sched.Pool { return e.pool }

// Options returns the engine's query options.
func (e *Engine) Options() QueryOptions { return e.opts }

// SetDeleted installs the deletion bitvector consulted before distance
// computation (§6.2). Pass nil to clear. The vector is read, not copied,
// and is consulted with atomic loads, so callers may keep setting bits
// (via SetAtomic) concurrently with queries — the tombstone contract of
// the node's snapshot concurrency model. SetDeleted itself must still be
// called before the engine is shared with readers.
func (e *Engine) SetDeleted(del *bitvec.Vector) { e.deleted = del }

// Phases returns accumulated per-phase times.
func (e *Engine) Phases() PhaseTimes {
	return PhaseTimes{Q2NS: e.q2ns.Load(), Q3NS: e.q3ns.Load()}
}

// ResetPhases zeroes the phase accumulators.
func (e *Engine) ResetPhases() {
	e.q2ns.Store(0)
	e.q3ns.Store(0)
}

// Query answers a single query with the engine's configured defaults.
func (e *Engine) Query(q sparse.Vector) []Neighbor {
	res, _ := e.QueryWithStats(q)
	return res
}

// QueryWithStats answers a single query and reports work counts.
func (e *Engine) QueryWithStats(q sparse.Vector) ([]Neighbor, QueryStats) {
	return e.SearchWithStats(q, SearchParams{})
}

// Search answers a single query under request-scoped parameters.
func (e *Engine) Search(q sparse.Vector, p SearchParams) []Neighbor {
	res, _ := e.SearchWithStats(q, p)
	return res
}

// SearchWithStats answers a single query under request-scoped parameters
// and reports work counts.
func (e *Engine) SearchWithStats(q sparse.Vector, p SearchParams) ([]Neighbor, QueryStats) {
	return e.SearchAppend(nil, q, p)
}

// SearchAppend answers a single query under request-scoped parameters,
// appending the answers to dst and returning the extended slice (the
// append contract of strconv.AppendInt and friends). Passing a slice with
// spare capacity makes the call allocation-free once the engine's pooled
// workspace is warm; the caller owns dst and everything returned. Answers
// are in bucket-scan order — callers wanting the canonical order apply
// SortNeighbors or TopK to the appended suffix.
func (e *Engine) SearchAppend(dst []Neighbor, q sparse.Vector, p SearchParams) ([]Neighbor, QueryStats) {
	if e.st.Len() == 0 || q.NNZ() == 0 {
		return dst, QueryStats{}
	}
	ws := e.Begin(q, p)
	res, stats := e.queryOn(dst, ws)
	e.End(ws)
	return res, stats
}

// Begin runs Step Q1 for q on a pooled workspace: it hashes the query,
// scatters its vocabulary mask (under OptimizedDP) and fixes the
// request's radius threshold and candidate budget. The caller passes the
// workspace to SearchOn and Verify, then returns it with End. q must be
// non-empty and stay unmodified until End.
func (e *Engine) Begin(q sparse.Vector, p SearchParams) *Workspace {
	ws := e.wsPool.Get().(*Workspace)
	e.st.fam.SketchInto(q, ws.scores, ws.sketch)
	radius := e.opts.Radius
	if p.Radius > 0 {
		radius = p.Radius
	}
	ws.q = q
	ws.thr = sparse.CosThreshold(radius)
	ws.maxCand = p.MaxCandidates
	ws.evaluated = 0
	if ws.mask != nil {
		ws.mask.Scatter(q)
	}
	return ws
}

// End returns a workspace obtained from Begin to the engine's pool. The
// workspace must not be used afterwards.
func (e *Engine) End(ws *Workspace) {
	if ws.mask != nil {
		ws.mask.Unscatter()
	}
	ws.q = sparse.Vector{}
	e.wsPool.Put(ws)
}

// Sketch returns the query's M hash values from Step Q1, for probing
// other tables built over the same family. Read-only; valid until End.
func (ws *Workspace) Sketch() []uint32 { return ws.sketch }

// SearchOn runs Steps Q2–Q4 against the static index for the query
// prepared in ws, appending answers to dst in bucket-scan order. It
// spends ws's candidate budget; QueryStats.Unique counts the distance
// computations made here.
func (e *Engine) SearchOn(dst []Neighbor, ws *Workspace) ([]Neighbor, QueryStats) {
	return e.queryOn(dst, ws)
}

// QueryBatch answers a batch in parallel with work stealing over queries
// (§5.2 "Parallelism": queries are independent tasks; batching trades
// latency for throughput, Fig. 10).
func (e *Engine) QueryBatch(qs []sparse.Vector) [][]Neighbor {
	out := make([][]Neighbor, len(qs))
	e.pool.Run(len(qs), func(task, worker int) {
		out[task] = e.Query(qs[task])
	})
	return out
}

// QueryBatchStats answers a batch and reports per-query work counts.
func (e *Engine) QueryBatchStats(qs []sparse.Vector) ([][]Neighbor, []QueryStats) {
	out := make([][]Neighbor, len(qs))
	stats := make([]QueryStats, len(qs))
	e.pool.Run(len(qs), func(task, worker int) {
		out[task], stats[task] = e.QueryWithStats(qs[task])
	})
	return out, stats
}

// SearchBatchAppend answers a batch in parallel, reusing dst: entry i is
// rewritten in place as append(dst[i][:0], answers...), so a caller that
// holds one dst across batches reaches a zero-allocation steady state once
// every entry has grown to its working capacity. dst is extended with nil
// entries if shorter than qs; the returned slice (always len(qs)) and its
// entries are owned by the caller. Workers write disjoint entries, so the
// usual batch parallelism applies unchanged.
func (e *Engine) SearchBatchAppend(dst [][]Neighbor, qs []sparse.Vector, p SearchParams) [][]Neighbor {
	for len(dst) < len(qs) {
		dst = append(dst, nil)
	}
	dst = dst[:len(qs)]
	e.pool.Run(len(qs), func(task, worker int) {
		dst[task], _ = e.SearchAppend(dst[task][:0], qs[task], p)
	})
	return dst
}

// queryOn runs Steps Q2–Q4 on a workspace Begin prepared, appending
// answers to dst.
func (e *Engine) queryOn(dst []Neighbor, ws *Workspace) ([]Neighbor, QueryStats) {
	var stats QueryStats
	if e.st.Len() == 0 {
		return dst, stats
	}
	half := uint(e.st.fam.Params().K / 2)

	var t0 int64
	if e.opts.CollectPhases {
		t0 = now()
	}

	// Step Q2: read buckets from all L tables and deduplicate.
	ws.cand = ws.cand[:0]
	if e.opts.UseBitvector {
		seen := ws.seen
		if e.opts.ExtractCandidates {
			// Three passes, each a run of loads that do not depend on
			// one another, so their misses overlap: every table's
			// bucket bounds, then every bucket's first item, then the
			// mark pass over buckets now cached. Then scan to a sorted
			// array (§5.2.2).
			tables := e.st.tables
			lo, hi := ws.lo, ws.hi
			for l, pr := range e.pairs {
				key := ws.sketch[pr.a]<<half | ws.sketch[pr.b]
				offs := tables[l].Offsets
				lo[l], hi[l] = offs[key], offs[key+1]
			}
			var sink uint32
			for l := range tables {
				// Clamped: an empty bucket may start at len(Items), and
				// Compact can empty a whole table.
				if items := tables[l].Items; len(items) > 0 {
					sink += items[min(int(lo[l]), len(items)-1)]
				}
			}
			ws.sink += sink
			for l := range tables {
				bucket := tables[l].Items[lo[l]:hi[l]]
				stats.Collisions += len(bucket)
				for _, id := range bucket {
					seen.Set(int(id))
				}
			}
			ws.cand = seen.AppendSet(ws.cand)
		} else {
			// Mark-and-append: dedup without the sorted extraction.
			for l := range e.st.tables {
				pr := e.pairs[l]
				key := ws.sketch[pr.a]<<half | ws.sketch[pr.b]
				bucket := e.st.tables[l].Bucket(key)
				stats.Collisions += len(bucket)
				for _, id := range bucket {
					if seen.TestAndSet(int(id)) {
						ws.cand = append(ws.cand, id)
					}
				}
			}
		}
		seen.ResetList(ws.cand)
	} else {
		// Unoptimized: a set container (the paper's "C++ STL set" arm).
		set := ws.set
		for l := range e.st.tables {
			pr := e.pairs[l]
			key := ws.sketch[pr.a]<<half | ws.sketch[pr.b]
			bucket := e.st.tables[l].Bucket(key)
			stats.Collisions += len(bucket)
			for _, id := range bucket {
				set[id] = struct{}{}
			}
		}
		for id := range set {
			ws.cand = append(ws.cand, id)
			delete(set, id)
		}
	}
	if e.opts.CollectPhases {
		t1 := now()
		e.q2ns.Add(t1 - t0)
		t0 = t1
	}

	// Steps Q3+Q4: distance computation and radius filter.
	base := len(dst)
	before := ws.evaluated
	dst = ws.Verify(dst, e.store, e.deleted, 0, ws.cand)
	stats.Unique = ws.evaluated - before
	if e.opts.CollectPhases {
		e.q3ns.Add(now() - t0)
	}
	stats.Results = len(dst) - base
	return dst, stats
}

// Verify runs Steps Q3+Q4 over cand, appending every candidate within
// the request's radius to dst. Candidate c is row base+c of store and is
// answered under that ID; deleted (nil for none) holds tombstones by the
// same ID and is read atomically. The static probe and the node's delta
// segments both verify through here, so they share the workspace's mask
// and candidate budget.
//
// The budget bounds distance computations: tombstoned candidates are
// skipped for free, so a deletion-heavy candidate set does not starve
// the budget unevaluated. Under ExtractCandidates, candidates are
// verified in chunks: each chunk's row bounds are gathered, then each
// row's first and last column and value are touched, then the chunk is
// verified in order — so the row misses of a chunk overlap instead of
// queuing one per candidate.
func (ws *Workspace) Verify(dst []Neighbor, store sparse.Store, deleted *bitvec.Vector, base uint32, cand []uint32) []Neighbor {
	mask, thr := ws.mask, ws.thr
	left := -1 // distance computations the budget still allows; < 0 is unbounded
	if ws.maxCand > 0 {
		left = ws.maxCand - ws.evaluated
	}
	evaluated := 0
	if !ws.prefetch {
		// The Fig. 5 arms before "+sw prefetch" fetch each row when its
		// turn comes. This stays a loop of its own: running these arms
		// through the chunk loop with one-row chunks cost them 10-20%
		// on Fig5Query, which would misstate the ablation.
		for _, id := range cand {
			id += base
			if deleted != nil && deleted.TestAtomic(int(id)) {
				continue
			}
			if evaluated == left {
				break
			}
			evaluated++
			idx, val := store.Doc(int(id))
			var dot float64
			if mask != nil {
				dot = mask.Dot(idx, val)
			} else {
				dot = sparse.Dot(ws.q, sparse.Vector{Idx: idx, Val: val})
			}
			if dot >= thr {
				dst = append(dst, Neighbor{ID: id, Dist: sparse.AngularDistance(dot)})
			}
		}
		ws.evaluated += evaluated
		return dst
	}
chunks:
	for len(cand) > 0 {
		chunk := cand[:min(verifyChunk, len(cand))]
		cand = cand[len(chunk):]
		docs := ws.docs[:len(chunk)]
		for i, id := range chunk {
			docs[i].idx, docs[i].val = store.Doc(int(base + id))
		}
		ws.touch(docs)
		for i, id := range chunk {
			id += base
			if deleted != nil && deleted.TestAtomic(int(id)) {
				continue
			}
			if evaluated == left {
				break chunks
			}
			evaluated++
			var dot float64
			if mask != nil {
				dot = mask.Dot(docs[i].idx, docs[i].val)
			} else {
				dot = sparse.Dot(ws.q, sparse.Vector{Idx: docs[i].idx, Val: docs[i].val})
			}
			if dot >= thr {
				dst = append(dst, Neighbor{ID: id, Dist: sparse.AngularDistance(dot)})
			}
		}
	}
	ws.evaluated += evaluated
	return dst
}

// touch loads the first and last column and value of every gathered row.
// A row of up to 16 non-zeros spans at most two cache lines per array, so
// this pulls all of it toward the core with independent loads.
func (ws *Workspace) touch(docs []docRef) {
	var sink uint32
	for _, d := range docs {
		if n := len(d.idx); n > 0 {
			sink += d.idx[0] ^ d.idx[n-1] ^ math.Float32bits(d.val[0]) ^ math.Float32bits(d.val[n-1])
		}
	}
	ws.sink += sink
}

// SortNeighbors orders neighbors by ascending distance, breaking ties by ID
// — a stable presentation order for callers and tests. slices.SortFunc
// rather than sort.Slice: the generic path sorts in place with no
// per-call allocation, which matters on the hot path (one sort per query
// per node).
func SortNeighbors(ns []Neighbor) {
	slices.SortFunc(ns, func(a, b Neighbor) int {
		if a.Dist != b.Dist {
			if a.Dist < b.Dist {
				return -1
			}
			return 1
		}
		if a.ID < b.ID {
			return -1
		}
		if a.ID > b.ID {
			return 1
		}
		return 0
	})
}

// ExactNeighbors computes the ground-truth answer by exhaustive scan over
// the store — the reference used by recall tests. It ignores the index.
func ExactNeighbors(store sparse.Store, q sparse.Vector, radius float64) []Neighbor {
	thr := sparse.CosThreshold(radius)
	var out []Neighbor
	for i := 0; i < store.Rows(); i++ {
		idx, val := store.Doc(i)
		dot := sparse.Dot(q, sparse.Vector{Idx: idx, Val: val})
		if dot >= thr {
			out = append(out, Neighbor{ID: uint32(i), Dist: sparse.AngularDistance(dot)})
		}
	}
	return out
}
