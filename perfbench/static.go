package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"plsh"
	"plsh/internal/persist"
	"plsh/internal/sparse"
)

// A timed run sets its workload up setupReps times and recovers it
// recoverReps times; setup_s and recover_s are the medians. Traced runs
// do each once.
const (
	setupReps   = 3
	recoverReps = 9
)

func (e *env) reps(n int) int {
	if e.traced {
		return 1
	}
	return n
}

// storeConfig is the in-process index configuration shared by the
// in-process workloads.
func (e *env) storeConfig(capacity int) plsh.Config {
	return plsh.Config{Dim: dim, K: hashK, M: hashM, Radius: radius, Capacity: capacity, Workers: e.workers, Seed: hashSeed}
}

// denseIDs checks that a Store assigned ids first, first+1, ...
func denseIDs(ids []uint64, first, n int) error {
	if len(ids) != n {
		return fmt.Errorf("insert: %d ids for %d documents", len(ids), n)
	}
	for i, id := range ids {
		if id != uint64(first+i) {
			return fmt.Errorf("insert: id %d at position %d, want %d", id, i, first+i)
		}
	}
	return nil
}

// checkDocs compares sampled stored documents with the generator's copy.
func checkDocs(ctx context.Context, idx plsh.Index, ids []uint64, want func(uint64) sparse.Vector) error {
	for _, id := range ids {
		v, ok, err := idx.Doc(ctx, id)
		if err != nil {
			return fmt.Errorf("doc %d: %w", id, err)
		}
		w := want(id)
		if !ok || !slices.Equal(v.Idx, w.Idx) || !slices.Equal(v.Val, w.Val) {
			return fmt.Errorf("doc %d differs from what was inserted", id)
		}
	}
	return nil
}

// sampleIDs returns n IDs spread evenly over [lo, hi).
func sampleIDs(lo, hi, n int) []uint64 {
	out := make([]uint64, 0, n)
	for i := range n {
		out = append(out, uint64(lo+(hi-lo)*i/n))
	}
	return out
}

// runStaticBatch: an in-process Store of 200k tweets merged to a pure
// static index, searched by one closed-loop client with SearchBatch(64).
// Only lshhash and core run under the measured phase. After it: recall on
// a fixed sample, recovery from a saved snapshot, and a closed-loop
// Insert(64) burst that gives the workload's ingest figures.
func runStaticBatch(ctx context.Context, e *env) error {
	nPre, burst := e.n(200_000), e.n(600)
	in := genInputs(e.seed, nPre, burst*64, e.n(65_536), e.n(2048))
	e.note("inputs", "digest=%s docs=%d+%d queries=%d recall_sample=%d", in.digest, nPre, burst*64, len(in.queries), len(in.recallQ))
	e.phase("inputs")
	// Twice the documents it will hold: the η·C merge trigger then stays
	// above the burst, so the index is static until the burst and no
	// merge runs during it.
	cfg := e.storeConfig(2 * (nPre + burst*64))

	rss0, err := settledRSS()
	if err != nil {
		return err
	}
	var st *plsh.Store
	var setups []float64
	for range e.reps(setupReps) {
		if st != nil {
			st.Close()
			st = nil
		}
		runtime.GC() // each set-up starts from the same heap
		t := time.Now()
		if st, err = plsh.NewStore(cfg); err != nil {
			return err
		}
		ids, err := st.Insert(ctx, in.docs[:nPre])
		if err != nil {
			return err
		}
		if err := st.Merge(ctx); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
		e.chk.op(denseIDs(ids, 0, nPre))
	}
	defer st.Close()
	e.set("setup_s", median(setups))
	e.note("setup_samples", "%v s", setups)
	e.phase("setup")
	rss1, err := settledRSS()
	if err != nil {
		return err
	}
	e.set("rss_bytes_per_doc", float64(rss1-rss0)/float64(nPre))

	live := nPre
	doc := func(id uint64) (sparse.Vector, bool) {
		if id >= uint64(live) {
			return sparse.Vector{}, false
		}
		return in.docs[id], true
	}
	s := &searcher{e: e, idx: st, pool: in.queries, batch: 64, doc: doc}
	var smp *sampler
	if e.traced {
		smp = startSampler(ctx, st)
		s.inMerge = smp.merging.Load
	}
	before, err := st.Stats(ctx)
	if err != nil {
		return err
	}
	if err := s.warmUp(ctx, 20); err != nil {
		return err
	}
	start := time.Now()
	s.begin()
	for time.Since(start) < e.seconds {
		if err := s.do(ctx); err != nil {
			return err
		}
	}
	s.report(time.Since(start))
	after, err := st.Stats(ctx)
	if err != nil {
		return err
	}
	if smp != nil {
		mean, _ := smp.finish()
		e.set("node.delta_rows_mean", mean)
	}
	e.setNodeStats(statsDelta{before, after}, 0)
	e.phase("search")

	// Recall against the exhaustive oracle over the preload.
	o := newOracle(in.docs[:nPre])
	got, err := answers(ctx, e, st, in.recallQ, doc, nil)
	if err != nil {
		return err
	}
	all := func(int) bool { return true }
	rec, truth := measureRecall(o, in.recallQ, got, all, func(id uint64) int32 { return int32(id) })
	e.set("recall", rec)
	e.note("recall_truth", "%d true neighbors over %d queries", truth, len(in.recallQ))
	e.phase("recall")

	if e.traced {
		err := e.replay(ctx, replayInput{
			docs:         in.docs[:nPre],
			static:       nPre,
			workers:      e.workers,
			queries:      batches(in.recallQ[:min(replayQueries, len(in.recallQ))], 64),
			stream:       in.docs[nPre:],
			coalesceRows: largestCoalesce(burst*64, 64),
			outer: func(ctx context.Context, qs []sparse.Vector) error {
				_, _, err := st.SearchBatch(ctx, qs)
				return err
			},
			outerName: "node",
		})
		if err != nil {
			return err
		}
	}

	// Recovery: reopen a saved snapshot of the static index.
	dir := filepath.Join(e.tmp, "snapshot")
	w0, err := procWritten("self")
	if err != nil {
		return err
	}
	if err := st.SaveTo(ctx, dir); err != nil {
		return err
	}
	w1, err := procWritten("self")
	if err != nil {
		return err
	}
	e.set("persist.bytes_written_per_doc", float64(w1-w0)/float64(nPre))
	e.set("persist.snapshot_bytes", float64(fileSize(persist.SnapshotPath(dir))))
	var recovers []float64
	for i := range e.reps(recoverReps) {
		runtime.GC()
		t := time.Now()
		s2, err := plsh.Open(ctx, dir, cfg)
		if err != nil {
			return err
		}
		recovers = append(recovers, time.Since(t).Seconds())
		if i == 0 {
			e.chk.op(checkRecovered(ctx, e, s2, nPre, got, in, doc, nil))
		}
		if err := s2.Close(); err != nil {
			return err
		}
	}
	e.set("recover_s", median(recovers))
	e.phase("recover")

	// Ingest burst: closed-loop Insert(64) into the static store.
	var ins latencies
	nb, err := st.Stats(ctx)
	if err != nil {
		return err
	}
	start = time.Now()
	for b := range burst {
		docs := in.docs[nPre+b*64 : nPre+(b+1)*64]
		var ids []uint64
		var err error
		d := e.call("plsh.Insert", uint64(b+1), func() { ids, err = st.Insert(ctx, docs) })
		if err != nil {
			return err
		}
		ins.add(d)
		e.chk.op(denseIDs(ids, nPre+b*64, 64))
	}
	el := time.Since(start)
	live = nPre + burst*64
	na, err := st.Stats(ctx)
	if err != nil {
		return err
	}
	i0, i1 := statsDelta{nb, na}.sum(func(s plsh.Stats) int64 { return s.InsertNS })
	e.set("node.insert_us_per_doc", float64(i1-i0)/1e3/float64(burst*64))
	e.set("insert_docs_per_s", float64(burst*64)/el.Seconds())
	e.set("insert_p50_ms", ins.quantile(0.5))
	e.set("insert_p90_ms", ins.quantile(0.9))
	e.note("insert_tails", "p95=%.3f p99=%.3f", ins.quantile(0.95), ins.quantile(0.99))
	e.note("insert_samples", "%d Insert(64) calls after the search phase (closed loop, 1 client)", len(ins.ms))
	e.chk.op(checkDocs(ctx, st, sampleIDs(nPre, live, 64), func(id uint64) sparse.Vector { return in.docs[id] }))
	e.phase("burst")

	setAbsent(e, "plsh-node.cpu_ms_per_1k_queries", "plsh-node.rss_bytes", "cluster.failovers",
		"cluster.group_failures", "bench.generator_lag_p99_ms", "bench.generator_lag_max_ms")
	if e.tr != nil {
		e.set("trace.spans", float64(e.tr.count()))
	}
	return nil
}

// checkRecovered verifies a reopened Store: every acknowledged document
// is there with the content that was inserted, and it gives the same
// answers as before, none of them deleted (noDead may be nil).
func checkRecovered(ctx context.Context, e *env, s *plsh.Store, n int, want [][]uint64, in *inputs, doc func(uint64) (sparse.Vector, bool), noDead func(uint64) error) error {
	if s.Len() != n {
		return fmt.Errorf("recovered store holds %d documents, want %d", s.Len(), n)
	}
	if err := checkDocs(ctx, s, sampleIDs(0, n, 256), func(id uint64) sparse.Vector { return in.docs[id] }); err != nil {
		return fmt.Errorf("recovered store: %w", err)
	}
	got, err := answers(ctx, e, s, in.recallQ, doc, noDead)
	if err != nil {
		return fmt.Errorf("recovered store: %w", err)
	}
	if err := sameAnswers(want, got); err != nil {
		return fmt.Errorf("recovered store: %w", err)
	}
	return nil
}

// setAbsent reports 0 for layers that are not on a workload's path.
func setAbsent(e *env, names ...string) {
	for _, n := range names {
		e.set(n, 0)
	}
}
