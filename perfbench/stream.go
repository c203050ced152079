package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"plsh"
	"plsh/internal/persist"
	"plsh/internal/rng"
	"plsh/internal/sparse"
)

// Stream-ingest parameters: an open-loop insert stream at a fixed rate in
// small batches with a delete every deleteEvery batches, beside one
// closed-loop searcher.
const (
	streamRate  = 1000 // documents per second
	streamBatch = 20
	deleteEvery = 5 // one delete per 100 inserts
	streamQuery = 16
)

// runStreamIngest: a durable Store preloaded with 100k tweets, then an
// open-loop insert stream (timed from each batch's due time) with deletes,
// beside one closed-loop searcher. Capacity is sized to the stream so
// that at η = 0.1 background merges and checkpoints fire during the run.
// The run ends with Close → Open recovery.
func runStreamIngest(ctx context.Context, e *env) error {
	nPre := e.n(100_000)
	nBatches := max(1, int(e.seconds.Seconds()*streamRate/streamBatch))
	nStream := nBatches * streamBatch
	total := nPre + nStream
	in := genInputs(e.seed, nPre, nStream, e.n(65_536), e.n(2048))
	// Deletion victims: one per deleteEvery batches, drawn from the
	// documents acknowledged by then, never twice.
	vr := rng.New(e.seed ^ 0xd1b54a32d192ed03)
	victims := map[int]int{} // batch -> victim id
	dead := map[int]bool{}
	for b := deleteEvery - 1; b < nBatches; b += deleteEvery {
		for {
			v := vr.Intn(nPre + (b+1)*streamBatch)
			if !dead[v] {
				dead[v] = true
				victims[b] = v
				break
			}
		}
	}
	e.note("inputs", "digest=%s docs=%d+%d deletes=%d queries=%d recall_sample=%d", in.digest, nPre, nStream, len(victims), len(in.queries), len(in.recallQ))
	cfg := e.storeConfig(total + 1024)
	e.note("stream", "%d docs/s in batches of %d for %d batches, capacity %d, merge at %d delta rows",
		streamRate, streamBatch, nBatches, cfg.Capacity, cfg.Capacity/10)
	e.phase("inputs")

	rss0, err := settledRSS()
	if err != nil {
		return err
	}
	var st *plsh.Store
	var dir string
	var setups []float64
	for r := range e.reps(setupReps) {
		if st != nil {
			if err := st.Close(); err != nil {
				return err
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		dir = filepath.Join(e.tmp, fmt.Sprintf("store-%d", r))
		runtime.GC() // each set-up starts from the same heap
		t := time.Now()
		if st, err = plsh.Open(ctx, dir, cfg); err != nil {
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
	e.set("setup_s", median(setups))
	e.note("setup_samples", "%v s", setups)
	e.phase("setup")

	// Shared state between the inserter and the searcher.
	var sent atomic.Int64 // documents handed to Insert so far
	sent.Store(int64(nPre))
	var epoch atomic.Int64                // acknowledged deletes so far
	deadAt := make([]atomic.Int64, total) // epoch at which a delete was acknowledged
	doc := func(id uint64) (sparse.Vector, bool) {
		if id >= uint64(sent.Load()) {
			return sparse.Vector{}, false
		}
		return in.docs[id], true
	}
	admit := func() func(uint64) error {
		at := epoch.Load()
		return func(id uint64) error {
			if d := deadAt[id].Load(); d != 0 && d <= at {
				return fmt.Errorf("deleted document %d returned", id)
			}
			return nil
		}
	}

	s := &searcher{e: e, idx: st, pool: in.queries, batch: streamQuery, doc: doc, admit: admit}
	var smp *sampler
	if e.traced {
		smp = startSampler(ctx, st)
		s.inMerge = smp.merging.Load
	}
	before, err := st.Stats(ctx)
	if err != nil {
		return err
	}
	w0, err := procWritten("self")
	if err != nil {
		return err
	}

	var ins, lag latencies
	var insertErr error
	var lastAck time.Time
	done := make(chan struct{})
	start := time.Now().Add(20 * time.Millisecond)
	s.begin()
	interval := time.Second * streamBatch / streamRate
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the open-loop generator
		defer wg.Done()
		defer close(done)
		timer := time.NewTimer(0)
		defer timer.Stop()
		for b := range nBatches {
			due := start.Add(time.Duration(b) * interval)
			if w := time.Until(due); w > 0 {
				timer.Reset(w)
				select {
				case <-timer.C:
				case <-ctx.Done():
					insertErr = ctx.Err()
					return
				}
			}
			lag.add(time.Since(due))
			lo := nPre + b*streamBatch
			sent.Store(int64(lo + streamBatch))
			var ids []uint64
			var err error
			e.call("plsh.Insert", uint64(b+1), func() { ids, err = st.Insert(ctx, in.docs[lo:lo+streamBatch]) })
			if err != nil {
				insertErr = err
				return
			}
			lastAck = time.Now()
			ins.add(lastAck.Sub(due))
			e.chk.op(denseIDs(ids, lo, streamBatch))
			if v, ok := victims[b]; ok {
				var err error
				e.call("plsh.Delete", uint64(b+1), func() { err = st.Delete(ctx, uint64(v)) })
				e.chk.op(err)
				if err == nil {
					deadAt[v].Store(epoch.Add(1))
				}
			}
		}
	}()
	for searching := true; searching; {
		select {
		case <-done:
			searching = false
		default:
			if err := s.do(ctx); err != nil {
				wg.Wait()
				return err
			}
		}
	}
	wg.Wait()
	if insertErr != nil {
		return insertErr
	}
	el := time.Since(start)
	s.report(el)
	e.set("insert_docs_per_s", float64(nStream)/lastAck.Sub(start).Seconds())
	e.set("insert_p50_ms", ins.quantile(0.5))
	e.set("insert_p90_ms", ins.quantile(0.9))
	e.note("insert_tails", "p95=%.3f p99=%.3f", ins.quantile(0.95), ins.quantile(0.99))
	e.set("bench.generator_lag_p99_ms", lag.quantile(0.99))
	e.set("bench.generator_lag_max_ms", lag.quantile(1))
	e.note("insert_samples", "%d Insert(%d) calls, open loop at %d docs/s, timed from due time", len(ins.ms), streamBatch, streamRate)

	if err := st.Flush(ctx); err != nil {
		return err
	}
	w1, err := procWritten("self")
	if err != nil {
		return err
	}
	after, err := st.Stats(ctx)
	if err != nil {
		return err
	}
	maxDelta := 0
	if smp != nil {
		mean, mx := smp.finish()
		e.set("node.delta_rows_mean", mean)
		maxDelta = mx
	}
	e.setNodeStats(statsDelta{before, after}, nStream)
	e.set("persist.bytes_written_per_doc", float64(w1-w0)/float64(nStream))
	e.set("persist.snapshot_bytes", float64(fileSize(persist.SnapshotPath(dir))))
	e.note("merges", "%d background merges during the stream", after[0].Merges-before[0].Merges)
	rss1, err := settledRSS()
	if err != nil {
		return err
	}
	e.set("rss_bytes_per_doc", float64(rss1-rss0)/float64(total))
	e.phase("stream")

	// Recall against the exhaustive oracle over the acknowledged,
	// undeleted documents.
	alive := func(i int) bool { return !dead[i] }
	noDead := func(id uint64) error {
		if dead[int(id)] {
			return fmt.Errorf("deleted document %d returned", id)
		}
		return nil
	}
	got, err := answers(ctx, e, st, in.recallQ, doc, noDead)
	if err != nil {
		return err
	}
	rec, truth := measureRecall(newOracle(in.docs), in.recallQ, got, alive, func(id uint64) int32 { return int32(id) })
	e.set("recall", rec)
	e.note("recall_truth", "%d true neighbors over %d queries", truth, len(in.recallQ))
	e.phase("recall")

	if e.traced {
		deleted := make([]int, 0, len(dead))
		for v := range dead {
			deleted = append(deleted, v)
		}
		err := e.replay(ctx, replayInput{
			docs:         in.docs,
			static:       after[0].StaticLen,
			deleted:      deleted,
			workers:      e.workers,
			queries:      batches(in.recallQ[:min(replayQueries, len(in.recallQ))], 64),
			stream:       in.docs[nPre:],
			coalesceRows: largestCoalesce(maxDelta, streamBatch),
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

	// Recovery: Close, then reopen the directory (snapshot + journal).
	var recovers []float64
	for range e.reps(recoverReps) {
		if err := st.Close(); err != nil {
			return err
		}
		runtime.GC()
		t := time.Now()
		if st, err = plsh.Open(ctx, dir, cfg); err != nil {
			return err
		}
		recovers = append(recovers, time.Since(t).Seconds())
	}
	e.set("recover_s", median(recovers))
	e.note("recover_samples", "%v s", recovers)
	e.chk.op(checkRecovered(ctx, e, st, total, got, in, doc, noDead))
	e.phase("recover")
	if err := st.Close(); err != nil {
		return err
	}

	setAbsent(e, "plsh-node.cpu_ms_per_1k_queries", "plsh-node.rss_bytes", "cluster.failovers", "cluster.group_failures")
	if e.tr != nil {
		e.set("trace.spans", float64(e.tr.count()))
	}
	return nil
}
