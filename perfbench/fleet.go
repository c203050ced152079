package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"plsh"
	"plsh/internal/persist"
	"plsh/internal/sparse"
	"plsh/internal/transport"
)

// Fleet parameters: two single-worker plsh-node processes, one replica
// each, scatter placement; the client sends fleetMix-1 SearchBatch calls
// for every Insert, both of fleetBatch.
const (
	fleetNodes = 2
	fleetBatch = 64
	fleetMix   = 10
	// fleetPreloadChunk is the Insert size of the preload and top-up.
	fleetPreloadChunk = 20_000
)

// nodeProc is one plsh-node process the benchmark launched.
type nodeProc struct {
	bin, addr, dir, log string
	capacity            int
	cmd                 *exec.Cmd
	exited              chan error
}

func (p *nodeProc) start() error {
	lf, err := os.OpenFile(p.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer lf.Close() // the child holds its own descriptor
	cmd := exec.Command(p.bin,
		"-addr", p.addr, "-dim", strconv.Itoa(dim), "-k", strconv.Itoa(hashK), "-m", strconv.Itoa(hashM),
		"-r", strconv.FormatFloat(radius, 'g', -1, 64), "-seed", strconv.Itoa(hashSeed),
		"-capacity", strconv.Itoa(p.capacity), "-workers", "1", "-data", p.dir)
	cmd.Stdout, cmd.Stderr = lf, lf
	// The node must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return err
	}
	p.cmd = cmd
	p.exited = make(chan error, 1)
	go func() { p.exited <- cmd.Wait() }()
	return nil
}

func (p *nodeProc) pid() string { return strconv.Itoa(p.cmd.Process.Pid) }

// waitReady polls the node with real RPCs until it answers.
func (p *nodeProc) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		c, err := transport.Dial(ctx, p.addr)
		if err == nil {
			_, err = c.Stats(ctx)
			c.Close()
			if err == nil {
				return nil
			}
		}
		select {
		case werr := <-p.exited:
			p.exited <- werr
			return fmt.Errorf("plsh-node %s exited during start-up: %v (log %s)", p.addr, werr, p.log)
		default:
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("plsh-node %s not ready: %v", p.addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop ends the process: SIGTERM lets it drain and checkpoint, SIGKILL
// does not. It waits until the process has exited.
func (p *nodeProc) stop(sig syscall.Signal) error {
	if p.cmd == nil {
		return nil
	}
	_ = p.cmd.Process.Signal(sig) // fails only if it already exited
	select {
	case <-p.exited:
	case <-time.After(60 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
		p.cmd = nil
		return fmt.Errorf("plsh-node %s did not stop on %v", p.addr, sig)
	}
	p.cmd = nil
	return nil
}

// freeAddr reserves a loopback port for a node.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// fleet is one set of node processes and the coordinator over them.
type fleet struct {
	nodes  []*nodeProc
	relays []*relay // traced runs only
	cl     *plsh.Cluster
}

func (f *fleet) close() {
	if f.cl != nil {
		f.cl.Close()
	}
	for _, r := range f.relays {
		r.close()
	}
	for _, n := range f.nodes {
		_ = n.stop(syscall.SIGKILL) // teardown; a stuck node is already reported by stop's timeout
	}
}

func (e *env) startFleet(ctx context.Context, root string, capacity int) (*fleet, error) {
	if e.nodeBin == "" {
		return nil, errors.New("tcp-fleet needs -node-bin")
	}
	f := &fleet{}
	addrs := make([]string, fleetNodes)
	for i := range fleetNodes {
		addr, err := freeAddr()
		if err != nil {
			f.close()
			return nil, err
		}
		p := &nodeProc{bin: e.nodeBin, addr: addr, capacity: capacity, dir: filepath.Join(root, fmt.Sprintf("node-%d", i)),
			log: filepath.Join(root, fmt.Sprintf("node-%d.log", i))}
		if err := os.MkdirAll(p.dir, 0o755); err != nil {
			f.close()
			return nil, err
		}
		if err := p.start(); err != nil {
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, p)
		addrs[i] = addr
	}
	for i, p := range f.nodes {
		if err := p.waitReady(ctx); err != nil {
			f.close()
			return nil, err
		}
		if e.traced {
			r, err := newRelay(p.addr)
			if err != nil {
				f.close()
				return nil, err
			}
			f.relays = append(f.relays, r)
			addrs[i] = r.addr()
		}
	}
	cl, err := plsh.DialCluster(ctx, addrs, fleetNodes)
	if err != nil {
		f.close()
		return nil, err
	}
	f.cl = cl
	return f, nil
}

func (f *fleet) wireBytes() int64 {
	t := int64(0)
	for _, r := range f.relays {
		t += r.bytes.n.Load()
	}
	return t
}

// runTCPFleet: two plsh-node processes behind DialCluster, preloaded with
// 100k tweets; one closed-loop client sends nine SearchBatch(64) calls
// for every Insert(64).
func runTCPFleet(ctx context.Context, e *env) error {
	nPre, nStream := e.n(100_000), e.n(40_000)
	in := genInputs(e.seed, nPre, nStream, e.n(65_536), e.n(2048))
	e.note("inputs", "digest=%s docs=%d+%d queries=%d recall_sample=%d", in.digest, nPre, nStream, len(in.queries), len(in.recallQ))
	e.phase("inputs")

	var f *fleet
	defer func() {
		if f != nil {
			f.close()
		}
	}()
	var setups []float64
	var pos map[uint64]int32 // global ID -> generator index
	for r := range e.reps(setupReps) {
		if f != nil {
			f.close()
			if err := os.RemoveAll(filepath.Join(e.tmp, fmt.Sprintf("fleet-%d", r-1))); err != nil {
				return err
			}
		}
		t := time.Now()
		var err error
		// Each node could hold every document, so the η·C merge trigger
		// (per node) stays above what the measured phase inserts.
		if f, err = e.startFleet(ctx, filepath.Join(e.tmp, fmt.Sprintf("fleet-%d", r)), nPre+nStream); err != nil {
			return err
		}
		pos = make(map[uint64]int32, nPre+nStream)
		// Chunks bound the nodes' transient memory (and so their resident
		// set afterwards) without many small round trips.
		for lo := 0; lo < nPre; lo += fleetPreloadChunk {
			hi := min(lo+fleetPreloadChunk, nPre)
			ids, err := f.cl.Insert(ctx, in.docs[lo:hi])
			if err != nil {
				return err
			}
			for i, id := range ids {
				pos[id] = int32(lo + i)
			}
		}
		if err := f.cl.Merge(ctx); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
		e.chk.op(checkPlaced(pos, nPre))
	}
	e.set("setup_s", median(setups))
	e.note("setup_samples", "%v s", setups)
	e.phase("setup")
	cl := f.cl

	doc := func(id uint64) (sparse.Vector, bool) {
		i, ok := pos[id]
		if !ok {
			return sparse.Vector{}, false
		}
		return in.docs[i], true
	}
	s := &searcher{e: e, idx: cl, pool: in.queries, batch: fleetBatch, doc: doc}
	var smp *sampler
	if e.traced {
		smp = startSampler(ctx, cl)
		s.inMerge = smp.merging.Load
	}
	if err := s.warmUp(ctx, 20); err != nil {
		return err
	}

	before, err := cl.Stats(ctx)
	if err != nil {
		return err
	}
	cpu0, err := fleetCPU(f)
	if err != nil {
		return err
	}
	wal0 := fleetDirBytes(f)
	var ins latencies
	inserted, searchBytes, insertBytes := nPre, int64(0), int64(0)
	// The nodes' resident set moves with their GC cycles, so it is read
	// once a second and the median reported.
	var rssSamples []float64
	nextRSS := time.Now()
	start := time.Now()
	s.begin()
	for op := 1; time.Since(start) < e.seconds; op++ {
		if time.Now().After(nextRSS) {
			r, err := fleetRSS(f)
			if err != nil {
				return err
			}
			rssSamples = append(rssSamples, float64(r))
			nextRSS = nextRSS.Add(time.Second)
		}
		w := f.wireBytes()
		if op%fleetMix == 0 && inserted+fleetBatch <= nPre+nStream {
			docs := in.docs[inserted : inserted+fleetBatch]
			var ids []uint64
			var err error
			d := e.call("plsh.Insert", uint64(op), func() { ids, err = cl.Insert(ctx, docs) })
			if ctx.Err() != nil {
				return ctx.Err()
			}
			ins.add(d)
			if err == nil && len(ids) != len(docs) {
				err = fmt.Errorf("insert: %d ids for %d documents", len(ids), len(docs))
			}
			if err == nil {
				for i, id := range ids {
					pos[id] = int32(inserted + i)
				}
				inserted += len(docs)
			}
			e.chk.op(err)
			insertBytes += f.wireBytes() - w
			continue
		}
		if err := s.do(ctx); err != nil {
			return err
		}
		searchBytes += f.wireBytes() - w
	}
	el := time.Since(start)
	s.report(el)
	timedDocs := inserted - nPre
	e.set("insert_docs_per_s", float64(timedDocs)/el.Seconds())
	e.set("insert_p50_ms", ins.quantile(0.5))
	e.set("insert_p90_ms", ins.quantile(0.9))
	e.note("insert_tails", "p95=%.3f p99=%.3f", ins.quantile(0.95), ins.quantile(0.99))
	e.note("insert_samples", "%d Insert(%d) calls mixed 1:%d with searches (closed loop, 1 client)", len(ins.ms), fleetBatch, fleetMix-1)
	if e.traced {
		e.set("transport.wire_bytes_per_query", float64(searchBytes)/float64(max(1, s.queries)))
		e.set("transport.wire_bytes_per_doc", float64(insertBytes)/float64(max(1, timedDocs)))
	}
	cpu1, err := fleetCPU(f)
	if err != nil {
		return err
	}
	e.set("plsh-node.cpu_ms_per_1k_queries", float64((cpu1-cpu0).Milliseconds())/float64(s.queries)*1000)
	after, err := cl.Stats(ctx)
	if err != nil {
		return err
	}
	wal1 := fleetDirBytes(f)
	e.setNodeStats(statsDelta{before, after}, timedDocs)
	e.set("persist.bytes_written_per_doc", float64(wal1-wal0)/float64(max(1, timedDocs)))
	maxDelta := 0
	if smp != nil {
		var mean float64
		mean, maxDelta = smp.finish()
		e.set("node.delta_rows_mean", mean)
	}
	rss := median(rssSamples)
	e.set("plsh-node.rss_bytes", rss)
	e.set("rss_bytes_per_doc", rss/float64(inserted))
	cs := cl.CoordStats()
	e.set("cluster.failovers", float64(cs.Failovers))
	e.set("cluster.group_failures", float64(cs.GroupFailures))
	var healthy error
	if cs.GroupFailures != 0 || cs.Failovers != 0 {
		healthy = fmt.Errorf("coordinator saw %d group failures and %d failovers on a healthy fleet", cs.GroupFailures, cs.Failovers)
	}
	e.chk.op(healthy)
	e.phase("search")

	// Top up to the full stream so that recall is taken over the same
	// documents on every run, whatever the measured phase inserted.
	for inserted < nPre+nStream {
		hi := min(inserted+fleetPreloadChunk, nPre+nStream)
		ids, err := cl.Insert(ctx, in.docs[inserted:hi])
		if err != nil {
			return err
		}
		for i, id := range ids {
			pos[id] = int32(inserted + i)
		}
		inserted = hi
	}
	e.chk.op(checkPlaced(pos, inserted))
	got, err := answers(ctx, e, cl, in.recallQ, doc, nil)
	if err != nil {
		return err
	}
	all := func(int) bool { return true }
	rec, truth := measureRecall(newOracle(in.docs), in.recallQ, got, all, func(id uint64) int32 { return pos[id] })
	e.set("recall", rec)
	e.note("recall_truth", "%d true neighbors over %d queries", truth, len(in.recallQ))
	e.phase("recall")

	if e.traced {
		st, err := cl.Stats(ctx)
		if err != nil {
			return err
		}
		// Node 0's rows in local-ID order: the in-process layers replay
		// exactly what the first plsh-node holds.
		rows := make([]sparse.Vector, st[0].StaticLen+st[0].DeltaLen)
		for id, i := range pos {
			if g, l := plsh.SplitGlobalID(id); g == 0 {
				rows[l] = in.docs[i]
			}
		}
		snap := int64(0)
		for _, p := range f.nodes {
			snap += fileSize(persist.SnapshotPath(p.dir))
		}
		e.set("persist.snapshot_bytes", float64(snap))
		err = e.replay(ctx, replayInput{
			docs:         rows,
			static:       st[0].StaticLen,
			workers:      1,
			queries:      batches(in.recallQ[:min(replayQueries, len(in.recallQ))], 64),
			stream:       in.docs[nPre:],
			coalesceRows: largestCoalesce(maxDelta, fleetBatch/fleetNodes),
			remote:       f.nodes[0].addr,
			outer: func(ctx context.Context, qs []sparse.Vector) error {
				_, _, err := cl.SearchBatch(ctx, qs)
				return err
			},
			outerName: "transport",
		})
		if err != nil {
			return err
		}
		e.set("trace.spans", float64(e.tr.count()))
	}

	// Recovery: restart each node in turn from its data directory (a
	// graceful stop checkpoints it); the coordinator re-dials on its next
	// call and must give the same answers.
	var recovers []float64
	for i := range e.reps(recoverReps) {
		p := f.nodes[i%fleetNodes]
		if err := p.stop(syscall.SIGTERM); err != nil {
			return err
		}
		t := time.Now()
		if err := p.start(); err != nil {
			return err
		}
		if err := p.waitReady(ctx); err != nil {
			return err
		}
		recovers = append(recovers, time.Since(t).Seconds())
	}
	e.set("recover_s", median(recovers))
	e.note("recover_samples", "%v s (node process start to first answered RPC)", recovers)
	again, err := answers(ctx, e, cl, in.recallQ, doc, nil)
	if err != nil {
		return err
	}
	e.chk.op(sameAnswers(got, again))
	e.phase("recover")

	setAbsent(e, "bench.generator_lag_p99_ms", "bench.generator_lag_max_ms")
	return nil
}

// checkPlaced checks that the coordinator assigned n distinct global IDs.
func checkPlaced(pos map[uint64]int32, n int) error {
	if len(pos) != n {
		return fmt.Errorf("insert: %d distinct ids for %d documents", len(pos), n)
	}
	return nil
}

// fleetCPU sums the CPU time the node processes have used.
func fleetCPU(f *fleet) (time.Duration, error) {
	t := time.Duration(0)
	for _, p := range f.nodes {
		c, err := procCPU(p.pid())
		if err != nil {
			return 0, err
		}
		t += c
	}
	return t, nil
}

// fleetRSS sums the node processes' resident sets.
func fleetRSS(f *fleet) (int64, error) {
	t := int64(0)
	for _, p := range f.nodes {
		r, err := procStatus(p.pid(), "VmRSS")
		if err != nil {
			return 0, err
		}
		t += r
	}
	return t, nil
}

// fleetDirBytes sums the sizes of every file in the nodes' data
// directories: the journals grow by exactly the bytes appended while no
// checkpoint truncates them.
func fleetDirBytes(f *fleet) int64 {
	t := int64(0)
	for _, p := range f.nodes {
		_ = filepath.WalkDir(p.dir, func(path string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				t += fileSize(path)
			}
			return nil
		})
	}
	return t
}
