package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"plsh/internal/bitvec"
	"plsh/internal/core"
	"plsh/internal/delta"
	"plsh/internal/lshhash"
	"plsh/internal/node"
	"plsh/internal/sparse"
	"plsh/internal/transport"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the span that caused this one (0 for none).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written when the run ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the span clock: nanoseconds since the run started.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// id reserves a span ID, so that children can name a parent recorded
// after them.
func (t *tracer) id() uint64 { return t.ids.Add(1) }

// add records a finished span under a reserved ID.
func (t *tracer) add(id uint64, name string, parent, req uint64, start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// call runs fn as one span when tracing, and returns fn's wall time.
func (e *env) call(name string, req uint64, fn func()) time.Duration {
	if e.tr == nil {
		t := time.Now()
		fn()
		return time.Since(t)
	}
	s := e.tr.now()
	fn()
	end := e.tr.now()
	e.tr.add(e.tr.id(), name, 0, req, s, end)
	return time.Duration(end - s)
}

// overhead compares interleaved traced and untraced requests of the same
// closed loop: the tracing cost as a share of the untraced mean latency.
type overhead struct{ on, off latencies }

func (o *overhead) add(traced bool, d time.Duration) {
	if traced {
		o.on.add(d)
	} else {
		o.off.add(d)
	}
}

func (o *overhead) value() float64 {
	if len(o.on.ms) == 0 || len(o.off.ms) == 0 {
		return 0
	}
	return (o.on.sum()/float64(len(o.on.ms)))/(o.off.sum()/float64(len(o.off.ms))) - 1
}

// wireCounter counts bytes crossing TCP connections in both directions.
type wireCounter struct{ n atomic.Int64 }

type countingConn struct {
	net.Conn
	c *wireCounter
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.n.Add(int64(n))
	return n, err
}

// relay is a byte-counting TCP proxy in front of one server address.
type relay struct {
	l     net.Listener
	to    string
	bytes wireCounter
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns []net.Conn
}

func newRelay(to string) (*relay, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{l: l, to: to}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.l.Addr().String() }

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		in, err := r.l.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", r.to)
		if err != nil {
			in.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, in, out)
		r.mu.Unlock()
		cin := countingConn{in, &r.bytes}
		r.wg.Add(2)
		go r.pipe(out, cin)
		go r.pipe(cin, out)
	}
}

func (r *relay) pipe(dst, src net.Conn) {
	defer r.wg.Done()
	_, _ = io.Copy(dst, src) // ends when either side closes
	dst.Close()
	src.Close()
}

// close stops the relay and waits for its goroutines.
func (r *relay) close() {
	r.l.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// loopback serves a node over TCP on 127.0.0.1 inside this process.
type loopback struct {
	addr   string
	cancel context.CancelFunc
	done   chan error
}

func serveLoopback(ctx context.Context, n *node.Node) (*loopback, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{addr: l.Addr().String(), done: make(chan error, 1)}
	ctx, lb.cancel = context.WithCancel(ctx)
	go func() {
		lb.done <- transport.Serve(ctx, l, transport.NewLocal(n), nil)
	}()
	return lb, nil
}

func (lb *loopback) close() error {
	lb.cancel()
	return <-lb.done
}

// replayInput is the state and requests one isolation replay rebuilds:
// a node's documents in local-ID order with the same static/delta split
// and tombstones as the workload's node, and fixed query batches.
type replayInput struct {
	docs    []sparse.Vector
	static  int   // rows [0, static) are merged; the rest stay delta
	deleted []int // local IDs tombstoned
	workers int   // the node's worker count
	queries [][]sparse.Vector
	// stream supplies documents for the delta-insert and wire-per-doc
	// replays; coalesceRows is the per-side size of the largest
	// Bentley–Saxe coalesce the workload's node performed.
	stream       []sparse.Vector
	coalesceRows int
	// remote, when set, is the address of a real plsh-node holding the
	// same documents: the transport replay then measures the process
	// boundary instead of an in-process loopback server.
	remote string
	// outer replays one batch through the workload's public Index, and
	// outerName names the layer under it whose replay it is compared to.
	outer     func(ctx context.Context, qs []sparse.Vector) error
	outerName string
}

// A replay sends the first replayQueries of the recall sample, in batches
// of 64, replayPasses times through each layer; the per-batch median over
// passes is the layer's time for that batch.
const (
	replayQueries = 1024
	replayPasses  = 5
)

// replay runs the same batches through every layer — lshhash, then
// core.Engine, node.Node, transport.Client and the workload's plsh.Index
// — recording a span per call; each layer's self time is its replay
// minus the replay of the layer inside it. The four search layers take
// turns on each batch of each pass, so a slow moment of the machine lands
// on all of them alike rather than on whichever layer was running.
func (e *env) replay(ctx context.Context, in replayInput) error {
	nq := 0
	for _, b := range in.queries {
		nq += len(b)
	}
	fam, err := lshhash.NewFamily(lshhash.Params{Dim: dim, K: hashK, M: hashM, Seed: hashSeed})
	if err != nil {
		return err
	}

	// lshhash: sketch every query, and a sample of documents.
	scores := make([]float32, fam.Params().NumFuncs())
	sketch := make([]uint32, hashM)
	t := time.Now()
	for range replayPasses {
		for _, b := range in.queries {
			for _, q := range b {
				fam.SketchInto(q, scores, sketch)
			}
		}
	}
	e.set("lshhash.sketch_us_per_query", float64(time.Since(t).Nanoseconds())/1e3/float64(nq*replayPasses))
	sample := in.docs[:min(len(in.docs), 8192)]
	t = time.Now()
	fam.AppendSketches(nil, sample)
	e.set("lshhash.sketch_us_per_doc", float64(time.Since(t).Nanoseconds())/1e3/float64(len(sample)))

	// delta: streaming inserts in the node's batch size, and the largest
	// coalesce.
	dt := delta.New(fam, in.workers)
	ins := in.stream[:min(len(in.stream), 2000)]
	t = time.Now()
	for _, b := range batches(ins, 20) {
		dt.Insert(b)
	}
	e.set("delta.insert_us_per_doc", float64(time.Since(t).Nanoseconds())/1e3/float64(len(ins)))
	rows := min(in.coalesceRows, len(in.docs)/2)
	a, bb := delta.New(fam, in.workers), delta.New(fam, in.workers)
	a.Insert(in.docs[:rows])
	bb.Insert(in.docs[rows : 2*rows])
	a.Freeze()
	bb.Freeze()
	t = time.Now()
	delta.Coalesce(fam, a, bb, in.workers, nil)
	e.set("delta.coalesce_ms", float64(time.Since(t).Nanoseconds())/1e6)
	e.note("coalesce_rows", "%d + %d", rows, rows)
	dt, a, bb = nil, nil, nil

	// core: the static build over every row, and the §5.2 query path.
	mat := sparse.NewMatrix(dim, len(in.docs), 0)
	for _, d := range in.docs {
		mat.AppendRow(d)
	}
	bo := core.Defaults()
	bo.Workers = in.workers
	runtime.GC()
	t = time.Now()
	st, bt, err := core.BuildTimed(fam, mat, bo)
	if err != nil {
		return err
	}
	e.set("core.build_s", time.Since(t).Seconds())
	e.set("core.build_hash_s", float64(bt.HashNS)/1e9)
	e.set("core.build_i1_s", float64(bt.I1NS)/1e9)
	e.set("core.build_i2_s", float64(bt.I2NS)/1e9)
	e.set("core.build_i3_s", float64(bt.I3NS)/1e9)
	qo := core.QueryDefaults()
	qo.Radius = radius
	qo.Workers = in.workers
	qo.CollectPhases = true
	eng := core.NewEngine(st, mat, qo)
	if len(in.deleted) > 0 {
		del := bitvec.New(len(in.docs))
		for _, id := range in.deleted {
			del.Set(id)
		}
		eng.SetDeleted(del)
	}
	var qs core.QueryStats
	for _, b := range in.queries {
		for _, q := range b {
			_, s := eng.SearchWithStats(q, core.SearchParams{})
			qs.Collisions += s.Collisions
			qs.Unique += s.Unique
			qs.Results += s.Results
		}
	}
	e.set("core.collisions_per_query", float64(qs.Collisions)/float64(nq))
	e.set("core.unique_per_query", float64(qs.Unique)/float64(nq))
	e.set("core.results_per_query", float64(qs.Results)/float64(nq))
	e.set("core.verify_yield", float64(qs.Results)/math.Max(1, float64(qs.Unique)))
	e.note("core_counts", "collisions=%d unique=%d results=%d over %d queries", qs.Collisions, qs.Unique, qs.Results, nq)

	// node: the same rows, split static/delta like the workload's node.
	n, err := buildReplayNode(ctx, in)
	if err != nil {
		return err
	}

	// transport: the gob wire and, on tcp-fleet, the process boundary. A
	// byte-counting relay sits in front of either server, so the replay
	// pays the same extra hop on every workload.
	addr := in.remote
	var lb *loopback
	if addr == "" {
		if lb, err = serveLoopback(ctx, n); err != nil {
			return err
		}
		addr = lb.addr
	}
	rl, err := newRelay(addr)
	if err != nil {
		return err
	}
	cl, err := transport.Dial(ctx, rl.addr())
	if err != nil {
		return err
	}

	// The interleaved passes. Allocations are counted around the node and
	// transport calls, outside their spans.
	var dst [][]core.Neighbor
	var nodeAllocs, trAllocs uint64
	layers := []struct {
		name   string
		allocs *uint64
		call   func(qs []sparse.Vector) error
	}{
		{"core.Engine.SearchBatch", nil, func(qs []sparse.Vector) error {
			dst = eng.SearchBatchAppend(dst, qs, core.SearchParams{})
			return nil
		}},
		{"node.Node.SearchBatch", &nodeAllocs, func(qs []sparse.Vector) error {
			res, err := n.SearchBatch(ctx, qs, node.SearchParams{})
			n.ReleaseResults(res)
			return err
		}},
		{"transport.Client.Search", &trAllocs, func(qs []sparse.Vector) error {
			_, err := cl.Search(ctx, qs, node.SearchParams{})
			return err
		}},
		{"plsh.SearchBatch", nil, func(qs []sparse.Vector) error { return in.outer(ctx, qs) }},
	}
	runtime.GC()
	eng.ResetPhases()
	b0 := rl.bytes.n.Load()
	per := make([][][]float64, len(layers)) // layer, batch, pass
	parents := make([]uint64, len(layers))
	for l := range layers {
		per[l] = make([][]float64, len(in.queries))
		parents[l] = e.tr.id()
	}
	var ms runtime.MemStats
	start := e.tr.now()
	for range replayPasses {
		for b, qs := range in.queries {
			for l, layer := range layers {
				var mallocs uint64
				if layer.allocs != nil {
					runtime.ReadMemStats(&ms)
					mallocs = ms.Mallocs
				}
				s := e.tr.now()
				if err := layer.call(qs); err != nil {
					return fmt.Errorf("%s replay: %w", layer.name, err)
				}
				end := e.tr.now()
				if layer.allocs != nil {
					runtime.ReadMemStats(&ms)
					*layer.allocs += ms.Mallocs - mallocs
				}
				e.tr.add(e.tr.id(), layer.name, parents[l], uint64(b+1), s, end)
				per[l][b] = append(per[l][b], float64(end-s))
			}
		}
	}
	for l, layer := range layers {
		e.tr.add(parents[l], layer.name+".replay", 0, 0, start, e.tr.now())
	}
	// perQuery is a layer's time per query: the per-batch medians over
	// passes, summed over batches.
	perQuery := func(l int) float64 {
		t := 0.0
		for _, p := range per[l] {
			t += median(p)
		}
		return t / 1e3 / float64(nq)
	}
	coreUS, nodeUS, trUS, plshUS := perQuery(0), perQuery(1), perQuery(2), perQuery(3)
	ph := eng.Phases()
	e.set("core.search_us_per_query", coreUS)
	e.set("core.q2_us_per_query", float64(ph.Q2NS)/1e3/float64(nq*replayPasses))
	e.set("core.q3_us_per_query", float64(ph.Q3NS)/1e3/float64(nq*replayPasses))
	e.set("node.search_us_per_query", nodeUS)
	e.set("node.self_us_per_query", nodeUS-coreUS)
	e.set("transport.search_us_per_query", trUS)
	e.set("transport.self_us_per_query", trUS-nodeUS)
	allocs := trAllocs
	if in.remote == "" {
		// The in-process server's allocations include the node's own;
		// remove them so the figure is what the wire adds.
		allocs = max(allocs, nodeAllocs) - nodeAllocs
		// On tcp-fleet the measured phase counts the wire through relays
		// in front of both nodes; here only the loopback server's bytes.
		e.set("transport.wire_bytes_per_query", float64(rl.bytes.n.Load()-b0)/float64(nq*replayPasses))
	}
	e.set("transport.client_allocs_per_query", float64(allocs)/float64(nq*replayPasses))
	inner := nodeUS
	if in.outerName == "transport" {
		inner = trUS
	}
	e.set("plsh.search_us_per_query", plshUS)
	e.set("plsh.search_overhead_us_per_query", plshUS-inner)
	cl.Close()
	rl.close()
	if lb != nil {
		if err := lb.close(); err != nil {
			return err
		}
	}

	if in.remote == "" {
		// Wire bytes per inserted document, against a scratch node so the
		// replayed state is left untouched.
		scratch, err := node.New(replayNodeConfig(len(in.stream)+1, in.workers))
		if err != nil {
			return err
		}
		slb, err := serveLoopback(ctx, scratch)
		if err != nil {
			return err
		}
		srl, err := newRelay(slb.addr)
		if err != nil {
			return err
		}
		sc, err := transport.Dial(ctx, srl.addr())
		if err != nil {
			return err
		}
		docs := in.stream[:min(len(in.stream), 4096)]
		w0 := srl.bytes.n.Load()
		for _, b := range batches(docs, 64) {
			if _, err := sc.Insert(ctx, b); err != nil {
				return err
			}
		}
		e.set("transport.wire_bytes_per_doc", float64(srl.bytes.n.Load()-w0)/float64(len(docs)))
		sc.Close()
		srl.close()
		if err := slb.close(); err != nil {
			return err
		}
	}
	e.phase("replay")
	e.note("replay", "%d batches x %d passes, %d queries per pass, layers interleaved, plsh measured over %s", len(in.queries), replayPasses, nq, in.outerName)
	return nil
}

func replayNodeConfig(capacity, workers int) node.Config {
	build := core.Defaults()
	build.Workers = workers
	query := core.QueryDefaults()
	query.Radius = radius
	query.Workers = workers
	return node.Config{
		Params:   lshhash.Params{Dim: dim, K: hashK, M: hashM, Seed: hashSeed},
		Capacity: capacity,
		Build:    build,
		Query:    query,
	}
}

// buildReplayNode loads the replay rows into a fresh in-memory node with
// automatic merging off, so its static/delta split is exactly the one
// requested.
func buildReplayNode(ctx context.Context, in replayInput) (*node.Node, error) {
	n, err := node.New(replayNodeConfig(len(in.docs)+1, in.workers))
	if err != nil {
		return nil, err
	}
	if in.static > 0 {
		if _, err := n.Insert(ctx, in.docs[:in.static]); err != nil {
			return nil, err
		}
		if err := n.MergeNow(ctx); err != nil {
			return nil, err
		}
	}
	for _, b := range batches(in.docs[in.static:], 1024) {
		if _, err := n.Insert(ctx, b); err != nil {
			return nil, err
		}
	}
	for _, id := range in.deleted {
		if err := n.Delete(uint32(id)); err != nil && !errors.Is(err, node.ErrNotFound) {
			return nil, err
		}
	}
	return n, nil
}

// largestCoalesce is the per-side row count of the largest Bentley–Saxe
// coalesce a delta of up to maxDelta rows, filled in batches of batch
// rows, performs: segments pair up at batch·2^j rows.
func largestCoalesce(maxDelta, batch int) int {
	s := batch
	for 4*s <= maxDelta {
		s *= 2
	}
	return s
}
