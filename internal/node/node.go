// Package node combines a static PLSH index with a streaming delta table
// into one single-node store — the per-node architecture of §4 and §6,
// reworked around copy-on-write snapshots so maintenance never blocks
// reads.
//
// A node owns one contiguous document arena. Rows [0, staticLen) are
// covered by the optimized static index; rows [staticLen, total) live in a
// chain of frozen, insert-optimized delta segments. The paper buffers
// queries during a merge ("queries received during the merge are buffered
// until the merge completes", §6.2–§6.3); this implementation does not.
// Instead:
//
//   - Queries atomically load an immutable snapshot{static engine, delta
//     segments, arena prefix, tombstones} and run entirely lock-free
//     against it — they never wait on inserts, merges, or each other.
//   - Inserts append rows to the arena and publish a new snapshot under a
//     short mutex; each batch becomes a frozen delta segment, and trailing
//     segments are coalesced (Bentley–Saxe style) so the segment count
//     stays logarithmic even under single-document inserts.
//   - When the delta exceeds η·C, the segments are rotated out and a single
//     background goroutine rebuilds the static structure over static+frozen
//     rows — rebuild is within 2.67× of any possible merge scheme (§6.2) —
//     then publishes the new snapshot with an atomic pointer swap. A fresh
//     active delta accepts inserts for the whole duration.
//
// Deletions set a tombstone bit with an atomic OR — safe concurrently with
// lock-free readers — and merges compact tombstoned rows out of the rebuilt
// buckets so they are dropped, not resurrected. Retirement (the rolling
// window of §6) drains any in-flight merge, then replaces the arena and
// tombstones wholesale; in-flight snapshot queries keep reading the old,
// now-immutable structures.
//
// A node becomes durable by setting Config.Dir: every acknowledged
// Insert/Delete is journaled to a write-ahead log before it is
// acknowledged, each background merge checkpoints the merged state as a
// snapshot (truncating the journal), and Open recovers the node —
// snapshot load plus journal-tail replay — so every acknowledged write
// survives a crash. See internal/persist and DESIGN.md for the format
// and the recovery invariants.
package node

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"plsh/internal/bitvec"
	"plsh/internal/core"
	"plsh/internal/delta"
	"plsh/internal/lshhash"
	"plsh/internal/persist"
	"plsh/internal/sparse"
)

// ErrFull is returned by Insert when accepting the batch would exceed the
// node's capacity; the caller (the cluster's insert window) must advance to
// the next node.
var ErrFull = errors.New("node: capacity reached")

// ErrNotFound is returned by Delete for a document ID that was never
// inserted, so callers can distinguish a no-op from a real tombstone.
var ErrNotFound = errors.New("node: document not found")

// ErrNotDurable is returned by Save on a node configured without a data
// directory.
var ErrNotDurable = errors.New("node: no data directory configured")

// testHookMergeStart and testHookMergeBuilt, when non-nil, run inside the
// background merge goroutine: Start before the rebuild begins, Built after
// the rebuild completes but before the new snapshot is published. Tests use
// them to hold a merge open deterministically; they must be set while the
// node is quiescent.
var testHookMergeStart, testHookMergeBuilt func()

// Config parameterizes a node.
type Config struct {
	// Params is the LSH family configuration shared by static and delta.
	Params lshhash.Params
	// Capacity is C, the maximum number of documents the node holds.
	Capacity int
	// DeltaFraction is η: a background merge of the delta into the static
	// structure starts once the delta exceeds η·C (paper: 0.1, chosen so
	// worst-case query time stays within 1.5× of static, §6.3).
	DeltaFraction float64
	// AutoMerge, when false, disables the η trigger so experiments can
	// hold a chosen static/delta split (Fig. 11). MergeNow still works.
	AutoMerge bool
	// Build configures static (re)construction.
	Build core.BuildOptions
	// Query configures the static query path; Radius also applies to the
	// delta path.
	Query core.QueryOptions
	// Seed feeds the hash family if Params.Seed is zero.
	Seed uint64
	// BucketReservoir, when > 0, bounds every hash bucket (static and
	// delta) to at most this many entries, keeping the survivors by
	// reservoir sampling — the SLASH-style cap that makes per-insert and
	// per-bucket-scan cost independent of stream skew. Sampling is
	// deterministic in the node's seed. 0 (the default) keeps buckets
	// exact and unbounded.
	BucketReservoir int
	// Dir, when non-empty, makes the node durable: Open recovers its state
	// from Dir (latest snapshot + journal-tail replay), acknowledged
	// writes are journaled there first, and background merges checkpoint
	// snapshots that truncate the journal.
	Dir string
	// SyncWrites fsyncs every journal append before the write is
	// acknowledged. Off, acknowledged writes survive process death
	// (kill -9); on, they also survive machine crash, at a large
	// per-write cost.
	SyncWrites bool
}

// withDefaults normalizes cfg.
func (cfg Config) withDefaults() Config {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1 << 20
	}
	if cfg.DeltaFraction <= 0 || cfg.DeltaFraction > 1 {
		cfg.DeltaFraction = 0.1
	}
	if cfg.Params.Seed == 0 {
		cfg.Params.Seed = cfg.Seed
	}
	if cfg.Query.Radius <= 0 {
		cfg.Query.Radius = 0.9
	}
	return cfg
}

// SearchParams are the request-scoped knobs of one search — the
// parameter struct that flows from the public Search options through the
// coordinator and the wire protocol down to this entry point. The zero
// value means "the node's configured defaults, unbounded".
type SearchParams struct {
	// Radius overrides the configured query radius (radians) when > 0.
	// The hash tables are radius-agnostic, so any radius is answerable;
	// recall guarantees still assume the (k, m) geometry suits it.
	Radius float64
	// K, when > 0, bounds the answer to the k nearest in-radius documents,
	// sorted ascending by (distance, id).
	K int
	// MaxCandidates, when > 0, bounds how many unique candidates (static
	// engine plus delta segments combined) this query evaluates distances
	// for — a per-request latency/recall trade.
	MaxCandidates int
	// Routing, when nonzero, tags the batch as a routed sub-batch from a
	// partitioned-placement coordinator (RoutingPartitioned). Nodes answer
	// identically either way today — the hint versions the wire protocol,
	// so a pre-routing server rejects routed traffic loudly instead of
	// silently mis-serving it, and reserves room for node-side routing
	// awareness later.
	Routing uint8
}

// Routing hint values for SearchParams.Routing.
const (
	// RoutingNone marks an ordinary (scatter/broadcast or single-node)
	// search. The zero value, and byte-stable on the wire with peers that
	// predate routing.
	RoutingNone uint8 = 0
	// RoutingPartitioned marks a routed sub-batch: the coordinator sent
	// this node only the queries whose probe sets include its group.
	RoutingPartitioned uint8 = 1
)

// Stats summarizes a node's state and accumulated maintenance costs.
type Stats struct {
	StaticLen int
	// DeltaLen counts every row not yet covered by the static index,
	// including rows an in-flight background merge is currently absorbing.
	DeltaLen int
	Capacity int
	Deleted  int
	Merges   int
	// MergeInFlight reports whether a background merge is running right
	// now; MergePendingRows is how many delta rows it will absorb.
	MergeInFlight    bool
	MergePendingRows int
	LastMergeDur     time.Duration
	TotalMergeNS     int64
	InsertNS         int64
	MemoryBytes      int64
	// PersistErr is the most recent background persistence failure
	// (checkpoint or journal rotation) on a durable node; empty when
	// healthy. Failed checkpoints leave the journal untruncated, so
	// recovery still sees every acknowledged write.
	PersistErr string

	// Operation counters, accumulated since construction (gob-appended
	// after PersistErr — the wire response carries Stats whole, and a
	// peer that predates these fields reads/serves zeros). Searches
	// counts queries answered by SearchBatch, Inserts documents
	// accepted, Deletes tombstones acknowledged.
	SearchesServed uint64
	InsertsServed  uint64
	DeletesServed  uint64
	// WAL latency quantiles in nanoseconds over the node's lifetime:
	// per-record segment write and (with SyncWrites) per-record fsync —
	// the server-side cause a soak report correlates acknowledged-write
	// tails against. Zero on in-memory nodes.
	WALAppendP50NS int64
	WALAppendP99NS int64
	WALFsyncP50NS  int64
	WALFsyncP99NS  int64
}

// segment is one frozen delta table covering arena rows
// [base, base+t.Len()).
type segment struct {
	base int
	t    *delta.Table
}

// snapshot is the immutable state a query runs against. Every field is
// either immutable after publication (engine, static, segments, arena
// prefix) or safe for concurrent atomic access (tombstones), so readers
// touch no locks at all.
type snapshot struct {
	eng     *core.Engine // over arena rows [0, nStatic)
	nStatic int
	segs    []segment      // ascending base, covering [nStatic, rows)
	store   *sparse.Matrix // read-only arena prefix covering [0, rows)
	rows    int
	deleted *bitvec.Vector // shared tombstones; atomic access only
}

// Node is a single-node PLSH store. All exported methods are safe for
// concurrent use: queries load the current snapshot atomically and run
// lock-free; inserts, merges and retirement serialize behind a short
// mutex that is never held across a rebuild, so a multi-second merge
// stalls nobody.
type Node struct {
	cfg Config
	fam *lshhash.Family

	snap atomic.Pointer[snapshot]

	mu      sync.Mutex     // guards everything below
	store   *sparse.Matrix // master arena; append-only until Retire
	deleted *bitvec.Vector // capacity-sized; replaced wholesale on Retire
	segs    []segment      // unmerged delta segments, ascending base
	static  *core.Static   // current published static index
	eng     *core.Engine
	nStatic int

	merging    bool
	mergeUpTo  int           // arena rows the in-flight merge covers
	mergeDone  chan struct{} // closed when the in-flight merge completes
	coalescing bool          // a coalescer is rebuilding segments off-lock

	merges       int
	lastMergeDur time.Duration
	totalMergeNS int64
	insertNS     int64

	// wal is the write-ahead journal of a durable node; nil otherwise.
	// Set once at construction, never replaced.
	wal        *persist.WAL
	persistErr atomic.Pointer[string]

	// dwsPool recycles delta-side query workspaces, mirroring the static
	// engine's private-bitvector-per-query design.
	dwsPool sync.Pool
	// batchPool recycles SearchBatch answer buffers (the [][]Neighbor and
	// each per-query entry's backing array) between batches; see
	// ReleaseResults for the ownership contract.
	batchPool sync.Pool
	// outstanding counts batch answer buffers checked out of batchPool and
	// not yet released. Tests use it to prove the release-exactly-once
	// contract (a strand leaves it positive, a double release drives it
	// negative); it costs one atomic add per batch on each side.
	outstanding atomic.Int64

	// Operation counters behind Stats (one atomic add per op; survive
	// Retire, unlike the maintenance counters, because they describe
	// served traffic, not current contents).
	searchesServed atomic.Uint64
	insertsServed  atomic.Uint64
	deletesServed  atomic.Uint64
}

// deltaWorkspace is one search's private delta-probe state: the
// duplicate-elimination bitvector and candidate buffer. The query's
// sketch and vocabulary mask live in the engine's core.Workspace.
//
//plshvet:scratch owned per-search workspace (bitvec and candidate buffers); results are copied out before it returns to the pool
type deltaWorkspace struct {
	seen *bitvec.Vector
	cand []uint32
}

// newArena allocates a document arena for cfg: capacity rows with room
// for ~8 non-zeros per document before the value arenas first grow.
func newArena(cfg Config) *sparse.Matrix {
	return sparse.NewMatrix(cfg.Params.Dim, cfg.Capacity, cfg.Capacity*8)
}

// New builds an empty node — or, when cfg.Dir is set, recovers one from
// its data directory (see Open).
//
//plshvet:ignore ctxcheck ctx-less compatibility shim; Open is the ctx-aware form
func New(cfg Config) (*Node, error) { return Open(context.Background(), cfg) }

// Open builds a node. With cfg.Dir set it is the durable boot path: load
// the latest snapshot (rejecting checksum and parameter mismatches),
// replay the journal tail on top of it — every acknowledged write lands,
// a torn tail record does not — and open the journal for new appends.
// ctx bounds the replay. Without cfg.Dir it returns an empty in-memory
// node.
func Open(ctx context.Context, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	fam, err := lshhash.NewFamily(cfg.Params)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:     cfg,
		fam:     fam,
		store:   newArena(cfg),
		deleted: bitvec.New(cfg.Capacity),
	}
	n.dwsPool.New = func() any {
		return &deltaWorkspace{seen: bitvec.New(1024)}
	}
	if cfg.Dir == "" {
		n.initStaticLocked() // no readers yet; mu formality only
		n.publishLocked()
		return n, nil
	}
	if err := n.recover(ctx); err != nil {
		return nil, err
	}
	return n, nil
}

// recover rebuilds the node from its data directory: install the latest
// snapshot (if any), replay the journal tail, then open the journal for
// appending. Runs before the node is shared, so plain state writes are
// safe; the locked helpers are used for their invariants, not exclusion.
func (n *Node) recover(ctx context.Context) error {
	cfg := n.cfg
	snap, err := persist.ReadSnapshot(cfg.Dir)
	switch {
	case errors.Is(err, persist.ErrNoSnapshot):
		n.initStaticLocked()
	case err != nil:
		return err
	default:
		if snap.Params != cfg.Params {
			return fmt.Errorf("node: snapshot in %s was written with params %+v, node configured with %+v",
				cfg.Dir, snap.Params, cfg.Params)
		}
		if snap.Rows > cfg.Capacity {
			return fmt.Errorf("node: snapshot in %s holds %d rows, over capacity %d",
				cfg.Dir, snap.Rows, cfg.Capacity)
		}
		n.store.AppendMatrix(snap.Arena)
		// The snapshot's tombstone words are trimmed to its rows; the live
		// vector is capacity-sized.
		words := n.deleted.Words()
		copy(words[:len(snap.Deleted)], snap.Deleted)
		n.nStatic = snap.Rows
		if snap.Rows == 0 {
			n.initStaticLocked()
		} else {
			// The serialized buckets go straight back into a Static — no
			// rehashing; this is what makes recovery O(bytes), not O(build).
			st, err := core.StaticFromTables(n.fam, snap.Rows, snap.Tables)
			if err != nil {
				return fmt.Errorf("node: %w", err)
			}
			prefix := n.store.Prefix(snap.Rows)
			eng := core.NewEngine(st, prefix, cfg.Query)
			eng.SetDeleted(n.deleted)
			n.static, n.eng = st, eng
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	err = persist.ReplayWAL(cfg.Dir, func(rec *persist.Record) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return n.applyRecordLocked(rec)
	})
	if err != nil {
		return err
	}
	n.publishLocked()
	wal, err := persist.OpenWAL(cfg.Dir, cfg.SyncWrites)
	if err != nil {
		return err
	}
	n.wal = wal
	// A fat recovered delta merges in the background like any other.
	if cfg.AutoMerge &&
		float64(n.store.Rows()-n.nStatic) > cfg.DeltaFraction*float64(cfg.Capacity) {
		n.startMergeLocked(n.store.Rows())
	}
	return nil
}

// applyRecordLocked replays one journal record. Inserts wholly covered by
// the snapshot are skipped; anything else must land exactly at the arena
// tail — journal bases are assigned under the writer mutex, so a gap or
// overlap means the directory's snapshot and journal disagree.
func (n *Node) applyRecordLocked(rec *persist.Record) error {
	switch rec.Kind {
	case persist.RecordInsert:
		if rec.Base+len(rec.Docs) <= n.nStatic {
			return nil // covered by the snapshot
		}
		if rec.Base != n.store.Rows() {
			return fmt.Errorf("node: journal replay: insert at row %d, expected %d", rec.Base, n.store.Rows())
		}
		if rec.Base+len(rec.Docs) > n.cfg.Capacity {
			return fmt.Errorf("node: journal replay: %d rows exceed capacity %d",
				rec.Base+len(rec.Docs), n.cfg.Capacity)
		}
		for _, v := range rec.Docs {
			for _, c := range v.Idx {
				if int(c) >= n.cfg.Params.Dim {
					return fmt.Errorf("node: journal replay: column %d out of dimension %d", c, n.cfg.Params.Dim)
				}
			}
		}
		t := n.newDelta()
		t.Insert(rec.Docs)
		t.Freeze()
		for _, v := range rec.Docs {
			n.store.AppendRow(v)
		}
		n.segs = append(n.segs, segment{base: rec.Base, t: t})
		n.coalesceLoopLocked()
	case persist.RecordDelete:
		if int(rec.ID) >= n.store.Rows() {
			return fmt.Errorf("node: journal replay: delete of unknown row %d", rec.ID)
		}
		n.deleted.SetAtomic(int(rec.ID))
	case persist.RecordRetire:
		n.resetLocked()
	default:
		return fmt.Errorf("node: journal replay: unknown record kind %d", rec.Kind)
	}
	return nil
}

// newDelta builds an empty delta segment under the node's configuration,
// bucket-reservoir bound included. Segments share one sampling seed: the
// stream each segment's reservoir sees is its own insert order, so the
// bound stays deterministic for a given insert sequence.
func (n *Node) newDelta() *delta.Table {
	t := delta.New(n.fam, n.cfg.Build.Workers)
	if n.cfg.BucketReservoir > 0 {
		t.SetReservoir(n.cfg.BucketReservoir, n.cfg.Params.Seed^0xd6e8feb86659fd93)
	}
	return t
}

// initStaticLocked (re)builds the static index and engine over the current
// arena's first nStatic rows — used at construction and retirement, when
// the delta is empty. Callers hold mu (or are in New).
func (n *Node) initStaticLocked() {
	st, eng := n.buildStatic(n.store.Prefix(n.nStatic), n.deleted)
	n.static, n.eng = st, eng
}

// buildStatic constructs a static index plus query engine over an immutable
// arena prefix. It takes no locks and touches no mutable node state, so the
// background merge calls it while inserts and queries proceed.
func (n *Node) buildStatic(prefix *sparse.Matrix, del *bitvec.Vector) (*core.Static, *core.Engine) {
	st, err := core.Build(n.fam, prefix, n.cfg.Build)
	if err != nil {
		// The store and family share Dim by construction; this is
		// unreachable absent memory corruption.
		panic(fmt.Sprintf("node: rebuild failed: %v", err))
	}
	if del.CountAtomic() > 0 {
		// Tombstone compaction: rows deleted before this point never become
		// candidates again. Later deletions are caught by the engine's
		// per-query tombstone filter.
		st.Compact(func(id uint32) bool { return del.TestAtomic(int(id)) }, n.cfg.Build.Workers)
	}
	if n.cfg.BucketReservoir > 0 {
		// Cap after compaction so tombstoned rows never consume reservoir
		// slots that live rows could have kept.
		st.CapBuckets(n.cfg.BucketReservoir, n.cfg.Params.Seed^0xa5a3564e06f8e3c1, n.cfg.Build.Workers)
	}
	eng := core.NewEngine(st, prefix, n.cfg.Query)
	eng.SetDeleted(del)
	return st, eng
}

// publishLocked installs a fresh immutable snapshot of the current state.
// Callers hold mu. The segment slice is cloned so later in-place edits
// (coalescing, merge completion) cannot reach already-published snapshots.
func (n *Node) publishLocked() {
	rows := n.store.Rows()
	n.snap.Store(&snapshot{
		eng:     n.eng,
		nStatic: n.nStatic,
		segs:    slices.Clone(n.segs),
		store:   n.store.Prefix(rows),
		rows:    rows,
		deleted: n.deleted,
	})
}

// Len returns the number of live rows (including deleted-but-present ones).
func (n *Node) Len() int { return n.snap.Load().rows }

// StaticLen returns the number of rows covered by the static index.
func (n *Node) StaticLen() int { return n.snap.Load().nStatic }

// DeltaLen returns the number of rows not yet covered by the static index
// (frozen segments awaiting or undergoing a merge, plus the active delta).
func (n *Node) DeltaLen() int {
	s := n.snap.Load()
	return s.rows - s.nStatic
}

// Capacity returns C.
func (n *Node) Capacity() int { return n.cfg.Capacity }

// Family exposes the node's hash family (shared with tests and the model).
func (n *Node) Family() *lshhash.Family { return n.fam }

// Insert appends a batch of documents, returning their node-local IDs.
// The batch must fit the remaining capacity, else ErrFull and nothing is
// inserted. When the delta exceeds η·C a background merge is kicked off;
// Insert does not wait for it.
//
// Cancellation is checked before any state changes; once the batch starts
// it runs to completion so the index never holds a partially applied batch.
func (n *Node) Insert(ctx context.Context, vs []sparse.Vector) ([]uint32, error) {
	if len(vs) == 0 {
		//plshvet:ignore walorder an empty batch mutates nothing, so there is nothing to journal before acknowledging it
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	// Hash the batch and build its frozen segment before taking the mutex:
	// the table depends only on the documents, not on where in the arena
	// they land, so the expensive per-batch work never blocks concurrent
	// Stats/Flush/MergeNow or other inserts. (A batch that then fails the
	// capacity check wastes this work — rare and terminal for the node.)
	t := n.newDelta()
	t.Insert(vs)
	t.Freeze()
	n.mu.Lock()
	if n.store.Rows()+len(vs) > n.cfg.Capacity {
		n.mu.Unlock()
		return nil, ErrFull
	}
	base := n.store.Rows()
	if n.wal != nil {
		// Write-ahead: the batch is journaled — at the base the mutex just
		// assigned, keeping journal order equal to arena order — before any
		// in-memory state changes, and acknowledged only after the journal
		// accepts it. A journal failure leaves the node untouched.
		//plshvet:ignore lockorder journal-before-ack: the append must commit under the insert mutex so journal order equals arena order; queries never take n.mu
		if err := n.wal.AppendInsert(base, vs); err != nil {
			n.mu.Unlock()
			return nil, err
		}
	}
	ids := make([]uint32, len(vs))
	for i, v := range vs {
		ids[i] = uint32(n.store.AppendRow(v))
	}
	n.segs = append(n.segs, segment{base: base, t: t})
	n.coalesceLoopLocked()
	n.insertNS += int64(time.Since(t0))
	n.publishLocked()
	if n.cfg.AutoMerge && !n.merging &&
		float64(n.store.Rows()-n.nStatic) > n.cfg.DeltaFraction*float64(n.cfg.Capacity) {
		n.startMergeLocked(n.store.Rows())
	}
	n.mu.Unlock()
	n.insertsServed.Add(uint64(len(vs)))
	return ids, nil
}

// coalesceLoopLocked merges trailing delta segments while the next-older
// one is within 2× of the newest (the Bentley–Saxe logarithmic scheme), so
// the per-query segment walk stays O(log deltaLen) even under single-
// document inserts, at amortized O(log) rebucketing per row.
//
// Rebucketing depends only on the pair's immutable sketches and the
// tombstones, so each step releases mu for the build and revalidates
// before splicing — the mutex is never held across the expensive work. At
// most one coalescer runs at a time; concurrent inserts skip and leave the
// tail for the next round (a mid-list pair missed that way is absorbed no
// later than the next merge). Entered and exited with mu held.
func (n *Node) coalesceLoopLocked() {
	if n.coalescing {
		return
	}
	n.coalescing = true
	defer func() { n.coalescing = false }()
	for {
		a, b, ok := n.coalesceCandidateLocked()
		if !ok {
			return
		}
		del := n.deleted
		n.mu.Unlock()
		merged := delta.Coalesce(n.fam, a.t, b.t, n.cfg.Build.Workers, func(i int) bool {
			return del.TestAtomic(a.base + i)
		})
		n.mu.Lock()
		// Revalidate: a completed background merge may have absorbed and
		// dropped the pair while we rebuilt it. Segments never reorder, so
		// the pair is identifiable by adjacency; splice in place (published
		// snapshots hold clones and are unaffected), else discard.
		for i := 0; i+1 < len(n.segs); i++ {
			if n.segs[i].t == a.t && n.segs[i+1].t == b.t {
				n.segs[i] = segment{base: a.base, t: merged}
				n.segs = append(n.segs[:i+1], n.segs[i+2:]...)
				break
			}
		}
	}
}

// coalesceCandidateLocked returns the top two segments when they should
// coalesce: both outside any in-flight merge's frozen range, with the
// older within 2× of the newer. Callers hold mu.
func (n *Node) coalesceCandidateLocked() (a, b segment, ok bool) {
	if len(n.segs) < 2 {
		return segment{}, segment{}, false
	}
	a = n.segs[len(n.segs)-2]
	b = n.segs[len(n.segs)-1]
	floor := n.nStatic
	if n.merging {
		floor = n.mergeUpTo
	}
	if a.base < floor || a.t.Len() > 2*b.t.Len() {
		return segment{}, segment{}, false
	}
	return a, b, true
}

// startMergeLocked freezes every segment below upTo and starts the single
// background merge goroutine over arena rows [0, upTo). Callers hold mu,
// have checked that no merge is in flight, and pass upTo equal to the
// current row count — the rotation invariant below depends on it.
func (n *Node) startMergeLocked(upTo int) {
	if upTo <= n.nStatic {
		return // nothing to absorb
	}
	token := 0
	if n.wal != nil {
		// Rotate the journal at the merge boundary. Every journaled record
		// was both appended and applied under mu with upTo the current row
		// count, so everything in the sealed segments is covered by the
		// snapshot this merge's checkpoint will write — the invariant that
		// makes truncating them safe. If rotation fails, the merge still
		// runs; only the checkpoint is skipped, so no journal data is lost.
		t, err := n.wal.Rotate()
		if err != nil {
			n.notePersistErr(err)
		} else {
			token = t
		}
	}
	n.merging = true
	n.mergeUpTo = upTo
	n.mergeDone = make(chan struct{})
	go n.runMerge(n.store.Prefix(upTo), n.deleted, upTo, token, n.mergeDone)
}

// runMerge is the background merge pipeline: rebuild the static structure
// over the frozen prefix without holding any lock, then publish the result
// with a brief critical section and an atomic snapshot swap. Queries and
// inserts proceed throughout. On a durable node the merged state is then
// checkpointed — snapshot written, sealed journal segments truncated —
// still off-lock, before done closes (so Flush/MergeNow return with the
// merge durable).
func (n *Node) runMerge(prefix *sparse.Matrix, del *bitvec.Vector, upTo, token int, done chan struct{}) {
	if h := testHookMergeStart; h != nil {
		h()
	}
	t0 := time.Now()
	st, eng := n.buildStatic(prefix, del)
	dur := time.Since(t0)
	if h := testHookMergeBuilt; h != nil {
		h()
	}

	n.mu.Lock()
	n.static, n.eng, n.nStatic = st, eng, upTo
	// Drop the segments the new static index now covers. Build a fresh
	// slice: published snapshots still reference the old segments.
	var keep []segment
	for _, sg := range n.segs {
		if sg.base >= upTo {
			keep = append(keep, sg)
		}
	}
	n.segs = keep
	n.merges++
	n.lastMergeDur = dur
	n.totalMergeNS += int64(dur)
	n.merging = false
	n.publishLocked()
	// Sustained-ingest chaining: if the active delta outgrew η·C while this
	// merge ran, immediately start the next one.
	if n.cfg.AutoMerge &&
		float64(n.store.Rows()-n.nStatic) > n.cfg.DeltaFraction*float64(n.cfg.Capacity) {
		n.startMergeLocked(n.store.Rows())
	}
	n.mu.Unlock()
	if token > 0 {
		// st, prefix and the tombstones are immutable/atomic, so the
		// checkpoint serializes them without any lock. WAL.Checkpoint
		// discards this write if a chained merge's newer checkpoint
		// already landed, so the on-disk snapshot never regresses.
		if err := n.wal.Checkpoint(makeSnapshot(n.cfg, prefix, st, del, upTo), token); err != nil {
			n.notePersistErr(err)
		}
	}
	close(done)
}

// makeSnapshot assembles the durable image of a merged state: rows
// documents, their static buckets, and the tombstone words trimmed and
// masked to exactly rows bits (stale bits past the row count would
// otherwise pre-delete future inserts on recovery).
func makeSnapshot(cfg Config, prefix *sparse.Matrix, st *core.Static, del *bitvec.Vector, rows int) *persist.Snapshot {
	words := del.Words()
	nw := (rows + 63) / 64
	dw := make([]uint64, nw)
	for i := range dw {
		dw[i] = atomic.LoadUint64(&words[i])
	}
	if rows%64 != 0 {
		dw[nw-1] &= 1<<(rows%64) - 1
	}
	var tables []core.Table
	if rows > 0 {
		// An empty index's tables are all offsets and no items; rebuilding
		// them on load is cheaper than serializing L·2^k zeros.
		tables = st.Tables()
	}
	return &persist.Snapshot{
		Params:   cfg.Params,
		Capacity: cfg.Capacity,
		Rows:     rows,
		Arena:    prefix,
		Tables:   tables,
		Deleted:  dw,
	}
}

func (n *Node) notePersistErr(err error) {
	s := err.Error()
	n.persistErr.Store(&s)
}

// awaitMergeLocked waits out one completion of the in-flight merge,
// honoring ctx. Callers hold mu with n.merging true; on nil return the
// lock is held again, on error (canceled ctx) it is released.
func (n *Node) awaitMergeLocked(ctx context.Context) error {
	done := n.mergeDone
	n.mu.Unlock()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-done:
	}
	n.mu.Lock()
	return nil
}

// MergeNow forces every row present at the time of the call into the static
// structure and returns once that state is reached (a quiesced merge): it
// rotates the active delta, waits out or chains onto any in-flight merge,
// and honors ctx while waiting. Queries and inserts are never blocked by
// the work it triggers.
func (n *Node) MergeNow(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n.mu.Lock()
	target := n.store.Rows()
	for {
		// A concurrent Retire can erase the rows this call set out to
		// merge; clamping the target to the current row count keeps the
		// quiescence condition reachable (and trivially satisfied on an
		// emptied node).
		if r := n.store.Rows(); r < target {
			target = r
		}
		if n.nStatic >= target {
			n.mu.Unlock()
			return nil
		}
		if !n.merging {
			n.startMergeLocked(n.store.Rows())
		}
		if err := n.awaitMergeLocked(ctx); err != nil {
			return err
		}
	}
}

// Flush waits for any in-flight background merge (including auto-merge
// chains) to finish without forcing one, honoring ctx. It returns nil
// immediately when no merge is running.
func (n *Node) Flush(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n.mu.Lock()
	for n.merging {
		if err := n.awaitMergeLocked(ctx); err != nil {
			return err
		}
	}
	n.mu.Unlock()
	return nil
}

// Delete marks a node-local ID as deleted; it will not be returned by
// queries, including queries running right now against older snapshots
// (tombstones are shared and read atomically). Safe to call concurrently
// with queries, inserts, and an in-flight merge: rows deleted before the
// merge's rebuild are compacted out of the new buckets, rows deleted after
// are filtered per query. Deleting an ID that was never inserted returns
// ErrNotFound; on a durable node the tombstone is journaled before the
// call returns.
func (n *Node) Delete(id uint32) error {
	if n.wal == nil {
		s := n.snap.Load()
		if int(id) >= s.rows {
			return ErrNotFound
		}
		s.deleted.SetAtomic(int(id))
		n.deletesServed.Add(1)
		return nil
	}
	// Durable path: journal, then apply, both under the writer mutex.
	// Journal rotation also runs under mu, so a tombstone journaled into a
	// sealed (about-to-be-truncated) segment is always applied before the
	// sealing merge's checkpoint copies the tombstone words — it can never
	// fall between the truncated journal and the snapshot.
	n.mu.Lock()
	defer n.mu.Unlock()
	if int(id) >= n.store.Rows() {
		return ErrNotFound
	}
	//plshvet:ignore lockorder journal-before-ack: the tombstone is journaled under n.mu so recovery replays deletes in mutation order
	if err := n.wal.AppendDelete(id); err != nil {
		return err
	}
	n.deleted.SetAtomic(int(id))
	n.deletesServed.Add(1)
	return nil
}

// Retire erases the node's contents (the rolling-window expiration of §6:
// "the contents of the these nodes are erased"), retaining the hash family
// and capacity. It drains any in-flight merge first — honoring ctx while
// waiting, like MergeNow and Flush; a canceled drain returns ctx.Err()
// with the node unretired — then replaces the arena and tombstones
// wholesale, so queries holding older snapshots keep reading the retired
// (immutable) structures and simply age out. On a durable node the
// erasure is journaled before it happens and checkpointed after, so a
// crash at any point recovers to either the full or the empty state —
// never a resurrection of expired documents.
func (n *Node) Retire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n.mu.Lock()
	for n.merging {
		if err := n.awaitMergeLocked(ctx); err != nil {
			return err
		}
	}
	if n.wal != nil {
		//plshvet:ignore lockorder journal-before-ack: retirement is journaled under n.mu so recovery cannot resurrect retired rows
		if err := n.wal.AppendRetire(); err != nil {
			n.mu.Unlock()
			return err
		}
	}
	n.resetLocked()
	n.publishLocked()
	token := 0
	var snap *persist.Snapshot
	if n.wal != nil {
		// Checkpoint the empty state so the pre-retirement snapshot and
		// journal are dropped rather than replayed-and-discarded on every
		// future boot. The retire record above already made the erasure
		// durable; a rotation failure here only costs disk space.
		if t, err := n.wal.Rotate(); err != nil {
			n.notePersistErr(err)
		} else {
			token = t
			snap = makeSnapshot(n.cfg, n.store.Prefix(0), n.static, n.deleted, 0)
		}
	}
	n.mu.Unlock()
	if token > 0 {
		if err := n.wal.Checkpoint(snap, token); err != nil {
			n.notePersistErr(err)
		}
	}
	return nil
}

// resetLocked erases the node's contents in place: fresh arena and
// tombstones (published snapshots keep the old ones), empty static.
// Callers hold mu.
func (n *Node) resetLocked() {
	n.store = newArena(n.cfg)
	n.deleted = bitvec.New(n.cfg.Capacity)
	n.segs = nil
	n.nStatic = 0
	n.initStaticLocked()
	n.merges = 0
	n.lastMergeDur = 0
	n.totalMergeNS = 0
	n.insertNS = 0
}

// Save forces a durable checkpoint of the node's own data directory: it
// drives the node to a fully merged state (like MergeNow, chasing
// concurrent ingest until a quiesced point is observed under the lock),
// writes the snapshot, and truncates the journal. Returns ErrNotDurable
// when no Config.Dir was set.
func (n *Node) Save(ctx context.Context) error {
	if n.wal == nil {
		return ErrNotDurable
	}
	return n.save(ctx, "", true)
}

// SaveTo writes a quiesced snapshot of the node into dir — a
// backup/export that any node configured with identical Params can Open.
// When dir is the node's own data directory this is exactly Save, journal
// truncation included.
func (n *Node) SaveTo(ctx context.Context, dir string) error {
	if n.wal != nil && sameDir(dir, n.cfg.Dir) {
		return n.save(ctx, "", true)
	}
	return n.save(ctx, dir, false)
}

func (n *Node) save(ctx context.Context, dir string, checkpoint bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n.mu.Lock()
	for n.merging || n.nStatic < n.store.Rows() {
		if !n.merging {
			n.startMergeLocked(n.store.Rows())
		}
		if err := n.awaitMergeLocked(ctx); err != nil {
			return err
		}
	}
	// Quiesced under the lock: every row is static and no merge is in
	// flight, so the captured state is the whole node — the condition the
	// checkpoint's journal truncation needs (no journaled record may
	// outlive the segments the rotation seals without being in the
	// snapshot).
	if checkpoint {
		token, err := n.wal.Rotate()
		if err != nil {
			n.mu.Unlock()
			return err
		}
		snap := makeSnapshot(n.cfg, n.store.Prefix(n.nStatic), n.static, n.deleted, n.nStatic)
		n.mu.Unlock()
		return n.wal.Checkpoint(snap, token)
	}
	snap := makeSnapshot(n.cfg, n.store.Prefix(n.nStatic), n.static, n.deleted, n.nStatic)
	n.mu.Unlock()
	return persist.WriteSnapshot(dir, snap)
}

func sameDir(a, b string) bool {
	if a == b {
		return true
	}
	aa, errA := filepath.Abs(a)
	bb, errB := filepath.Abs(b)
	return errA == nil && errB == nil && aa == bb
}

// Close releases a durable node's journal after draining any in-flight
// merge (so its checkpoint lands). Published snapshots keep answering
// queries; further journaled writes fail. No-op on an in-memory node.
func (n *Node) Close() error {
	if n.wal == nil {
		return nil
	}
	//plshvet:ignore ctxcheck Close implements io.Closer and cannot take a ctx; the final flush must run to completion
	if err := n.Flush(context.Background()); err != nil {
		return err
	}
	return n.wal.Close()
}

// Stats returns a snapshot of the node's state.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	rows := n.store.Rows()
	mem := n.static.MemoryBytes() + n.store.MemoryBytes()
	for _, sg := range n.segs {
		mem += sg.t.MemoryBytes()
	}
	st := Stats{
		StaticLen:     n.nStatic,
		DeltaLen:      rows - n.nStatic,
		Capacity:      n.cfg.Capacity,
		Deleted:       n.deleted.CountAtomic(),
		Merges:        n.merges,
		MergeInFlight: n.merging,
		LastMergeDur:  n.lastMergeDur,
		TotalMergeNS:  n.totalMergeNS,
		InsertNS:      n.insertNS,
		MemoryBytes:   mem,
	}
	if n.merging {
		st.MergePendingRows = n.mergeUpTo - n.nStatic
	}
	if p := n.persistErr.Load(); p != nil {
		st.PersistErr = *p
	}
	st.SearchesServed = n.searchesServed.Load()
	st.InsertsServed = n.insertsServed.Load()
	st.DeletesServed = n.deletesServed.Load()
	if n.wal != nil {
		st.WALAppendP50NS = int64(n.wal.WriteQuantile(0.50))
		st.WALAppendP99NS = int64(n.wal.WriteQuantile(0.99))
		st.WALFsyncP50NS = int64(n.wal.SyncQuantile(0.50))
		st.WALFsyncP99NS = int64(n.wal.SyncQuantile(0.99))
	}
	return st
}

// Search answers one query under request-scoped parameters. Answers come
// back in the canonical presentation order — ascending (distance, id) —
// bounded to the k nearest when p.K is set. This is the entry point the
// unified public Search path (Store, coordinator, wire protocol) lands on.
func (n *Node) Search(ctx context.Context, q sparse.Vector, p SearchParams) ([]core.Neighbor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := n.SearchAppend(ctx, nil, q, p)
	return res, err
}

// SearchAppend is Search with the append contract of
// core.Engine.SearchAppend: answers are appended to dst (finished — top-k
// bounded and canonically ordered — over the appended suffix only) and
// the extended slice is returned. A caller that reuses dst across calls
// makes the whole node-level search allocation-free in steady state; the
// caller owns dst and everything returned.
func (n *Node) SearchAppend(ctx context.Context, dst []core.Neighbor, q sparse.Vector, p SearchParams) ([]core.Neighbor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return finishSearch(n.searchOn(dst, n.snap.Load(), q, p), len(dst), p), nil
}

// SearchBatch answers a batch under one set of request-scoped parameters,
// in parallel (work stealing over queries, as in §5.2), every worker
// running against one consistent snapshot. Cancellation is cooperative:
// workers check ctx between queries, so an expired deadline abandons the
// remainder of the batch promptly and the whole call reports ctx.Err().
func (n *Node) SearchBatch(ctx context.Context, qs []sparse.Vector, p SearchParams) ([][]core.Neighbor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := n.snap.Load()
	out := n.getBatchOut(len(qs))
	s.eng.Pool().Run(len(qs), func(task, _ int) {
		if ctx.Err() != nil {
			return
		}
		out[task] = finishSearch(n.searchOn(out[task][:0], s, qs[task], p), 0, p)
	})
	if err := ctx.Err(); err != nil {
		n.ReleaseResults(out)
		return nil, err
	}
	n.searchesServed.Add(uint64(len(qs)))
	return out, nil
}

// getBatchOut fetches a recycled batch answer buffer of exactly nq
// entries. Entries keep the backing-array capacity they grew to in
// earlier batches (truncated to length 0), so a warmed node answers
// batches without allocating result storage.
func (n *Node) getBatchOut(nq int) [][]core.Neighbor {
	n.outstanding.Add(1)
	var out [][]core.Neighbor
	if p, _ := n.batchPool.Get().(*[][]core.Neighbor); p != nil {
		out = *p
	}
	for cap(out) < nq {
		out = append(out[:cap(out)], nil)
	}
	out = out[:nq]
	for i := range out {
		out[i] = out[i][:0]
	}
	return out
}

// ReleaseResults recycles a batch answer returned by SearchBatch (and by
// transport.Local.Search over it). It is optional — an un-released batch
// is simply garbage collected — but a caller on the hot path that calls
// it once per batch, after it has finished reading every entry, lets the
// node reuse the buffers for the next batch. The caller must not touch
// the slices afterwards, and must not release a batch twice. Neighbors
// hold no pointers, so recycling retains no document memory.
func (n *Node) ReleaseResults(out [][]core.Neighbor) {
	if out == nil {
		return
	}
	n.outstanding.Add(-1)
	n.batchPool.Put(&out)
}

// OutstandingBatches reports how many SearchBatch answer buffers are
// currently checked out (returned to a caller and not yet released). It
// is a test hook for the release-exactly-once contract: after every
// in-flight search has resolved and released, it must read 0 — positive
// means a strand, negative a double release.
func (n *Node) OutstandingBatches() int64 { return n.outstanding.Load() }

// finishSearch imposes the answer contract of Search on the raw
// candidates appended past res[:base]: top-k selection when bounded,
// canonical (distance, id) order either way. Entries before base are the
// caller's and are left untouched.
func finishSearch(res []core.Neighbor, base int, p SearchParams) []core.Neighbor {
	if p.K > 0 {
		return res[:base+len(core.TopK(res[base:], p.K))]
	}
	core.SortNeighbors(res[base:])
	return res
}

// Query answers one R-near-neighbor query over static + delta contents
// with the node's configured defaults (answer order unspecified).
//
// Deprecated: use Search, which takes request-scoped parameters and
// returns canonically ordered answers.
func (n *Node) Query(ctx context.Context, q sparse.Vector) ([]core.Neighbor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return n.searchOn(nil, n.snap.Load(), q, SearchParams{}), nil
}

// QueryBatch answers a batch in parallel with the node's configured
// defaults (answer order unspecified).
//
// Deprecated: use SearchBatch.
func (n *Node) QueryBatch(ctx context.Context, qs []sparse.Vector) ([][]core.Neighbor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := n.snap.Load()
	out := make([][]core.Neighbor, len(qs))
	s.eng.Pool().Run(len(qs), func(task, _ int) {
		if ctx.Err() != nil {
			return
		}
		out[task] = n.searchOn(nil, s, qs[task], SearchParams{})
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// QueryTopK answers one query with at most k answers: the k nearest of the
// R-near neighbors, sorted ascending by distance; k <= 0 answers empty
// (SearchParams.K treats 0 as unbounded instead).
//
// Deprecated: use Search with SearchParams.K.
func (n *Node) QueryTopK(ctx context.Context, q sparse.Vector, k int) ([]core.Neighbor, error) {
	if k <= 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, nil
	}
	return n.Search(ctx, q, SearchParams{K: k})
}

// searchOn runs the combined static+delta query against one immutable
// snapshot under request-scoped parameters, appending raw answers to dst.
// It takes no locks: the engine, segments and arena prefix are frozen,
// and tombstones are read atomically. The query is hashed and its mask
// scattered once, on the engine's workspace, and delta candidates go
// through the same verify kernel as static ones. p.MaxCandidates bounds
// the total distance computations across the static engine and the delta
// segments combined — the workspace carries one budget for both; p.K is
// left to the caller (finishSearch) so the R-near set stays intact for
// reuse.
func (n *Node) searchOn(dst []core.Neighbor, s *snapshot, q sparse.Vector, p SearchParams) []core.Neighbor {
	if q.NNZ() == 0 {
		return dst
	}
	cp := core.SearchParams{Radius: p.Radius, MaxCandidates: p.MaxCandidates}
	if len(s.segs) == 0 {
		res, _ := s.eng.SearchAppend(dst, q, cp)
		return res
	}
	qws := s.eng.Begin(q, cp)
	defer s.eng.End(qws)
	res, _ := s.eng.SearchOn(dst, qws)
	ws := n.dwsPool.Get().(*deltaWorkspace)
	defer n.dwsPool.Put(ws)
	for _, sg := range s.segs {
		ws.seen = ws.seen.Grow(sg.t.Len())
		ws.cand, _ = sg.t.Candidates(qws.Sketch(), ws.seen, ws.cand[:0])
		ws.seen.ResetList(ws.cand)
		res = qws.Verify(res, s.store, s.deleted, uint32(sg.base), ws.cand)
	}
	return res
}

// Doc returns document id's vector (shared storage; do not modify) and
// whether the id has ever been inserted — the node is the authority on
// that, so an inserted-but-empty document still reports true. An id never
// inserted returns (zero Vector, false) instead of panicking.
func (n *Node) Doc(id uint32) (sparse.Vector, bool) {
	s := n.snap.Load()
	if int(id) >= s.rows {
		return sparse.Vector{}, false
	}
	return s.store.Row(int(id)), true
}
