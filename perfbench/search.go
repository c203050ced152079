package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"plsh"
	"plsh/internal/sparse"
)

// searcher is one closed-loop client: it sends the next SearchBatch only
// after the previous one returned, and checks every answer.
type searcher struct {
	e     *env
	idx   plsh.Index
	pool  []sparse.Vector
	batch int
	// doc resolves a global ID to the generator's copy of the document.
	doc func(id uint64) (sparse.Vector, bool)
	// admit, when set, is called at request start and returns a check
	// every match of that request must pass (stream-ingest: no document
	// whose delete was acknowledged before the request started).
	admit func() func(id uint64) error
	// inMerge, when set, reports whether a background merge is running.
	inMerge func() bool

	// The machine's and this process's CPU counters at begin.
	cpuSteal, cpuTotal int64
	cpuSelf            time.Duration
	next               int
	seq                uint64
	queries            int
	lat                latencies
	ov                 overhead
	merged             int // requests that started during a merge
	groupMS            latencies
	gapMS              latencies
	coordUS            []float64
}

// do sends one batch; it returns ctx's error once the run is canceled and
// nil otherwise (failures are counted, not returned).
func (s *searcher) do(ctx context.Context) error {
	if s.next+s.batch > len(s.pool) {
		s.next = 0
	}
	qs := s.pool[s.next : s.next+s.batch]
	s.next += s.batch
	s.seq++
	var check func(id uint64) error
	if s.admit != nil {
		check = s.admit()
	}
	if s.inMerge != nil && s.inMerge() {
		s.merged++
	}
	traced := s.e.tr != nil && s.seq%2 == 1
	var res []plsh.Result
	var rep plsh.Report
	var err error
	call := func() { res, rep, err = s.idx.SearchBatch(ctx, qs) }
	var d time.Duration
	if traced {
		d = s.e.call("plsh.SearchBatch", s.seq, call)
	} else {
		t := time.Now()
		call()
		d = time.Since(t)
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	s.lat.add(d)
	s.ov.add(traced, d)
	s.queries += len(qs)
	slowest, fastest := time.Duration(0), time.Duration(1<<62)
	for _, g := range rep.Times {
		s.groupMS.add(g)
		slowest, fastest = max(slowest, g), min(fastest, g)
	}
	if len(rep.Times) > 0 {
		s.gapMS.add(slowest - fastest)
		s.coordUS = append(s.coordUS, float64((d-slowest).Nanoseconds())/1e3)
	}
	s.e.chk.op(checkAnswers(qs, res, err, s.doc, check))
	return nil
}

// warmUp sends n requests whose figures are dropped, so that caches and
// pools fill before the measured phase; their answers are still checked.
func (s *searcher) warmUp(ctx context.Context, n int) error {
	for range n {
		if err := s.do(ctx); err != nil {
			return err
		}
	}
	s.queries, s.lat, s.ov, s.merged = 0, latencies{}, overhead{}, 0
	s.groupMS, s.gapMS, s.coordUS = latencies{}, latencies{}, nil
	return nil
}

// checkAnswers verifies one SearchBatch answer.
func checkAnswers(qs []sparse.Vector, res []plsh.Result, err error, doc func(uint64) (sparse.Vector, bool), check func(uint64) error) error {
	if err != nil {
		return fmt.Errorf("search: %w", err)
	}
	if len(res) != len(qs) {
		return fmt.Errorf("search: %d answers for %d queries", len(res), len(qs))
	}
	for i, r := range res {
		if err := verifyMatches(qs[i], r.Matches, doc); err != nil {
			return fmt.Errorf("search: %w", err)
		}
		if check != nil {
			for _, m := range r.Matches {
				if err := check(m.ID); err != nil {
					return fmt.Errorf("search: %w", err)
				}
			}
		}
	}
	return nil
}

// begin marks the start of the measured phase.
func (s *searcher) begin() {
	s.cpuSteal, s.cpuTotal = cpuTimes()
	s.cpuSelf, _ = procCPU("self")
}

// report sets the search metrics of a measured phase that lasted el.
func (s *searcher) report(el time.Duration) {
	e := s.e
	e.set("search_qps", float64(s.queries)/el.Seconds())
	e.set("search_p50_ms", s.lat.quantile(0.5))
	e.set("search_p90_ms", s.lat.quantile(0.9))
	e.note("search_samples", "%d requests of %d queries (closed loop, 1 client)", len(s.lat.ms), s.batch)
	if c, err := procCPU("self"); err == nil {
		e.note("cpu_self", "%.2f us per query", float64((c-s.cpuSelf).Nanoseconds())/1e3/float64(max(1, s.queries)))
	}
	if st, tot := cpuTimes(); tot > s.cpuTotal {
		e.note("cpu_steal_share", "%.4f of machine CPU time during the measured phase", float64(st-s.cpuSteal)/float64(tot-s.cpuTotal))
	}
	e.note("search_tails", "p95=%.3f p99=%.3f", s.lat.quantile(0.95), s.lat.quantile(0.99))
	e.set("cluster.group_rtt_p50_ms", s.groupMS.quantile(0.5))
	e.set("cluster.straggler_gap_ms", s.gapMS.quantile(0.5))
	e.set("cluster.coord_us_per_batch", median(s.coordUS))
	e.set("trace.overhead", s.ov.value())
	e.set("node.merge_overlap_share", float64(s.merged)/float64(max(1, len(s.lat.ms))))
}

// answers runs qs through idx in batches and returns, per query, the
// matched IDs in ascending order. Every batch is checked like a measured
// request.
func answers(ctx context.Context, e *env, idx plsh.Index, qs []sparse.Vector, doc func(uint64) (sparse.Vector, bool), check func(uint64) error) ([][]uint64, error) {
	out := make([][]uint64, 0, len(qs))
	for _, b := range batches(qs, 64) {
		res, _, err := idx.SearchBatch(ctx, b)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		cerr := checkAnswers(b, res, err, doc, check)
		e.chk.op(cerr)
		if cerr != nil {
			return nil, cerr
		}
		for _, r := range res {
			ids := make([]uint64, len(r.Matches))
			for i, m := range r.Matches {
				ids[i] = m.ID
			}
			slices.Sort(ids)
			out = append(out, ids)
		}
	}
	return out, nil
}

// measureRecall scores answers against the oracle's truth over the live
// documents; index maps a global ID to its generator index.
func measureRecall(o *oracle, qs []sparse.Vector, got [][]uint64, live func(int) bool, index func(uint64) int32) (float64, int) {
	var rc recallCounter
	for i, q := range qs {
		found := make([]int32, len(got[i]))
		for j, id := range got[i] {
			found[j] = index(id)
		}
		rc.add(found, o.near(q, live))
	}
	return rc.value(), rc.total
}

// sameAnswers compares two answer sets for identity.
func sameAnswers(a, b [][]uint64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d answers, want %d", len(b), len(a))
	}
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			return fmt.Errorf("query %d: %d matches, want %d (or different IDs)", i, len(b[i]), len(a[i]))
		}
	}
	return nil
}

// sampler polls an index's Stats in the background during a traced run:
// the mean delta size and whether a merge is in flight. Stats walks every
// delta bucket under the node's write lock (tens of milliseconds at 10k
// delta rows), so it polls only every samplePeriod to keep the traced
// workload close to the timed one.
type sampler struct {
	idx      plsh.Index
	merging  atomic.Bool
	mu       sync.Mutex
	delta    []float64
	maxDelta int
	stop     chan struct{}
	done     chan struct{}
}

const samplePeriod = 500 * time.Millisecond

func startSampler(ctx context.Context, idx plsh.Index) *sampler {
	s := &sampler{idx: idx, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(samplePeriod)
		defer t.Stop()
		for {
			s.poll(ctx)
			select {
			case <-t.C:
			case <-s.stop:
				return
			case <-ctx.Done():
				return
			}
		}
	}()
	return s
}

func (s *sampler) poll(ctx context.Context) {
	st, err := s.idx.Stats(ctx)
	if err != nil {
		return
	}
	rows, merging := 0, false
	for _, n := range st {
		rows += n.DeltaLen
		merging = merging || n.MergeInFlight
	}
	s.merging.Store(merging)
	s.mu.Lock()
	s.delta = append(s.delta, float64(rows)/float64(len(st)))
	s.maxDelta = max(s.maxDelta, rows/len(st))
	s.mu.Unlock()
}

// finish stops the sampler and returns the mean and maximum per-node
// delta size it saw.
func (s *sampler) finish() (mean float64, maxRows int) {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	t := 0.0
	for _, d := range s.delta {
		t += d
	}
	return t / float64(max(1, len(s.delta))), s.maxDelta
}

// statsDelta sums node Stats over a phase.
type statsDelta struct{ before, after []plsh.Stats }

func (d statsDelta) sum(f func(plsh.Stats) int64) (before, after int64) {
	for _, s := range d.before {
		before += f(s)
	}
	for _, s := range d.after {
		after += f(s)
	}
	return before, after
}

// setNodeStats sets the node.* counters of a phase in which docs
// documents were inserted.
func (e *env) setNodeStats(d statsDelta, docs int) {
	m0, m1 := d.sum(func(s plsh.Stats) int64 { return int64(s.Merges) })
	t0, t1 := d.sum(func(s plsh.Stats) int64 { return s.TotalMergeNS })
	i0, i1 := d.sum(func(s plsh.Stats) int64 { return s.InsertNS })
	_, mem := d.sum(func(s plsh.Stats) int64 { return s.MemoryBytes })
	_, rows := d.sum(func(s plsh.Stats) int64 { return int64(s.StaticLen + s.DeltaLen) })
	wal := int64(0)
	for _, s := range d.after {
		wal = max(wal, s.WALAppendP99NS)
	}
	e.set("node.merges", float64(m1-m0))
	e.set("node.merge_s_total", float64(t1-t0)/1e9)
	e.set("node.insert_us_per_doc", float64(i1-i0)/1e3/float64(max(docs, 1)))
	e.set("node.memory_bytes_per_doc", float64(mem)/float64(max(rows, 1)))
	e.set("persist.wal_append_p99_us", float64(wal)/1e3)
}
