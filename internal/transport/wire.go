package transport

import (
	"bufio"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"plsh/internal/core"
	"plsh/internal/node"
	"plsh/internal/sparse"
)

// The wire protocol is a sequence of gob frames in each direction over one
// TCP connection. Every request carries a client-assigned sequence number;
// the server handles each request in its own goroutine and writes the
// response — tagged with the same sequence number — as soon as it is
// ready, so responses may arrive out of order and many RPCs are in flight
// per connection at once (the net/rpc design: a writer goroutine
// serializing frames, a reader goroutine dispatching on a pending map).
// Cancellation crosses the wire two ways: each request carries its
// context deadline, and an abandoned call sends a best-effort opCancel
// frame, so the server stops spending CPU on answers nobody will read.

// op enumerates wire operations.
type op uint8

const (
	opInsert op = iota + 1
	opQueryBatch
	opQueryTopK
	opDelete
	opMerge
	opRetire
	opStats
	// opCancel aborts the in-flight request whose Seq it carries; it has
	// no response frame.
	opCancel
	// New ops append after opCancel so existing opcode values stay stable
	// under client/server version skew.
	opFlush
	// opSave checkpoints the node's data directory (snapshot + journal
	// truncation).
	opSave
	// opSearch is the unified query op: a batch of vectors plus a
	// versioned request-scoped parameter struct (radius, top-k bound,
	// candidate budget). Older servers answer it with an unknown-op
	// error, so mixed-version clusters fail loud, not wrong.
	opSearch
	// opDoc fetches one stored vector by node-local id, plus the node's
	// authoritative known/unknown answer.
	opDoc
)

// searchVersion is the highest searchParams revision this binary speaks.
// The version rides inside every opSearch frame; a server that receives a
// newer revision than it knows rejects the request instead of silently
// dropping parameters it cannot interpret.
//
// v2 added the Routing hint. A search without the hint still declares
// searchVersionBase, so scatter traffic stays decodable by — and
// byte-identical to — pre-routing servers; only frames that actually
// carry routing claim v2, which a pre-routing server rejects loudly.
const (
	searchVersionBase = 1
	searchVersion     = 2
)

// searchParams is the wire form of node.SearchParams. It is a separate
// struct so the wire encoding is owned here: node-side fields can evolve
// independently, and appends to this struct keep old frames decodable
// (gob fills missing fields with zero values, which all mean "default").
type searchParams struct {
	// Version is the revision of this struct the client encoded;
	// required (an opSearch frame with Version 0 is malformed).
	Version       uint8
	Radius        float64
	K             int
	MaxCandidates int
	// Routing is the v2 placement-routing hint (node.RoutingPartitioned
	// on routed sub-batches); zero — and absent from the frame's bytes,
	// gob omits zero fields — on ordinary searches.
	Routing uint8
}

// request is the client→server frame. Pooled; putRequest zeroes it
// wholesale before Put, because gob decodes into retained capacity.
//
//plshvet:frame
type request struct {
	Seq     uint64
	Op      op
	Vectors []sparse.Vector
	ID      uint32 // Delete / Doc target
	K       int    // QueryTopK bound
	// Search carries the request-scoped parameters of an opSearch frame.
	// Nil on every other op (and on frames from pre-opSearch clients).
	Search *searchParams
	// Deadline is the caller's context deadline as Unix nanoseconds (0 =
	// none). The server bounds the backend call with it, so an expired
	// client deadline stops costing server CPU even if the cancel frame
	// never arrives. Assumes loosely synchronized clocks; skew only moves
	// when the server gives up, never the client-side outcome.
	Deadline int64

	// sp is client-side scratch: Search points at it so an opSearch frame
	// costs no separate searchParams allocation. Unexported, so gob never
	// sees it — the wire encoding is unchanged (pinned by the golden test).
	sp searchParams
}

// respCode distinguishes sentinel errors across the wire.
type respCode uint8

const (
	codeOK respCode = iota
	codeFull
	codeError
	// codeNotFound carries node.ErrNotFound (delete of a never-inserted
	// id); appended after codeError so existing values stay stable under
	// version skew.
	codeNotFound
	// codeDeadline carries context.DeadlineExceeded: the server bounds a
	// request with the caller's deadline, rebuilt from wall-clock Unix
	// nanoseconds, so it can expire there before the caller's own context
	// does. The client maps it back to context.DeadlineExceeded instead of
	// a flattened remote error string. A client that predates it takes
	// its success path with an empty payload: a search then fails its
	// answer-count check, but other ops (Insert, Flush, MergeNow, Save)
	// read as done, so upgrade clients before servers.
	codeDeadline
)

// response is the server→client frame. Pooled; putResponse zeroes it
// wholesale before Put.
//
//plshvet:frame
type response struct {
	Seq     uint64
	Code    respCode
	Err     string
	IDs     []uint32
	Results [][]core.Neighbor
	TopK    []core.Neighbor
	Stats   node.Stats
	// Doc and Known answer an opDoc request.
	Doc   sparse.Vector
	Known bool
}

// Frame structs are pooled on both ends of the connection: every RPC
// reuses a request and a response instead of allocating fresh ones. The
// invariant is "pool contents are zeroed" — put* clears the struct before
// Put, so a Get always hands gob a blank frame and decoded slices that
// escaped into the backend (inserted vectors, returned answer lists) are
// never aliased by a later decode: gob allocates fresh backing arrays
// into zeroed fields.
var (
	reqPool  = sync.Pool{New: func() any { return new(request) }}
	respPool = sync.Pool{New: func() any { return new(response) }}
	// respChPool recycles the per-call response channel. Only channels
	// that completed a normal receive are returned: a channel closed by
	// connection failure, or one a canceled call abandoned (a late
	// response may still land in it), is left to the GC.
	respChPool = sync.Pool{New: func() any { return make(chan *response, 1) }}
)

func getRequest() *request   { return reqPool.Get().(*request) }
func getResponse() *response { return respPool.Get().(*response) }

func putRequest(r *request) {
	*r = request{}
	reqPool.Put(r)
}

func putResponse(r *response) {
	*r = response{}
	respPool.Put(r)
}

// Serve answers requests for backend on l until ctx is canceled (clean
// shutdown: returns nil) or the listener fails. Each connection decodes
// requests sequentially but handles every request in its own goroutine,
// so one connection sustains many concurrent RPCs. Cancellation closes
// the listener and every open connection, failing in-flight client calls
// promptly instead of leaving them hanging; Serve returns only after
// every connection's handlers have finished, so the backend is quiescent
// when it does.
//
// onError, if non-nil, receives connection-level failures (frame decode
// errors, response encode errors) that would otherwise be silent; it may
// be called from multiple goroutines.
func Serve(ctx context.Context, l net.Listener, backend NodeClient, onError func(error)) error {
	return ServeWithOptions(ctx, l, backend, ServeOptions{OnError: onError})
}

// ServeOptions configures Serve's shutdown behavior.
type ServeOptions struct {
	// Drain is the graceful-shutdown window. When the serve context is
	// canceled, intake stops immediately — the listener closes and no
	// further requests are decoded — but requests already in flight keep
	// their backend contexts and connections alive for up to Drain, so
	// their answers (and, on a durable node, their journal appends) land
	// instead of being torn mid-write. Requests still running at the end
	// of the window are hard-canceled. Zero reproduces the legacy
	// behavior: cancellation aborts in-flight requests at once.
	Drain time.Duration
	// OnError, if non-nil, receives connection-level failures (frame
	// decode errors, response encode errors) that would otherwise be
	// silent; it may be called from multiple goroutines.
	OnError func(error)
}

// ServeWithOptions is Serve with explicit shutdown options; see Serve for
// the serving contract and ServeOptions.Drain for the graceful-shutdown
// window. Like Serve it returns only after every in-flight handler has
// finished, so the backend is quiescent — checkpointable — when it does.
func ServeWithOptions(ctx context.Context, l net.Listener, backend NodeClient, opts ServeOptions) error {
	if ctx == nil {
		//plshvet:ignore ctxcheck nil-ctx fallback at the public serve boundary; Serve owns its root context when the caller passes none
		ctx = context.Background()
	}
	// Request contexts derive from hardCtx, which outlives the serve
	// context by the drain window: canceling ctx stops intake (soft stop)
	// while in-flight requests keep running until they finish or the
	// window closes.
	hardCtx, hardCancel := context.WithCancel(context.WithoutCancel(ctx))
	defer hardCancel()
	stopDrain := context.AfterFunc(ctx, func() {
		if opts.Drain <= 0 {
			hardCancel()
			return
		}
		time.AfterFunc(opts.Drain, hardCancel)
	})
	defer stopDrain()
	stop := context.AfterFunc(ctx, func() { l.Close() })
	defer stop()
	var conns sync.WaitGroup
	defer conns.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil // clean shutdown
			}
			return err
		}
		conns.Add(1)
		go func() {
			defer conns.Done()
			serveConn(ctx, hardCtx, conn, backend, opts.OnError)
		}()
	}
}

// serveConn serves one connection. ctx is the serve (soft-stop) context:
// its cancellation stops decoding — via an immediate read deadline, so
// the connection stays writable for draining answers. hardCtx bounds the
// in-flight requests themselves; its cancellation closes the connection
// outright. Without a drain window the two cancel together, which is the
// legacy abort-everything shutdown.
func serveConn(ctx, hardCtx context.Context, conn net.Conn, backend NodeClient, onError func(error)) {
	defer conn.Close() // best-effort; the peer sees EOF either way
	stopSoft := context.AfterFunc(ctx, func() {
		_ = conn.SetReadDeadline(time.Unix(1, 0)) // unblock the decoder, keep the conn writable
	})
	defer stopSoft()
	stop := context.AfterFunc(hardCtx, func() { conn.Close() })
	defer stop()
	// One decoder, one encoder, one write buffer per connection — frames
	// reuse them for the connection's whole life instead of paying
	// per-RPC setup. The decoder reads through its own buffer (gob wraps
	// non-ByteReaders in one); the encoder writes through bw, flushed
	// per frame under writeMu so a response hits the wire as soon as its
	// frame is complete.
	dec := gob.NewDecoder(bufio.NewReader(conn))
	bw := bufio.NewWriter(conn)
	enc := gob.NewEncoder(bw)
	var writeMu sync.Mutex // gob encoders are stateful: one frame at a time
	// inflight maps request Seq → cancel func, so an opCancel frame from
	// the client aborts the matching backend call.
	var inflightMu sync.Mutex
	inflight := map[uint64]context.CancelFunc{}
	var wg sync.WaitGroup
	for {
		req := getRequest()
		if err := dec.Decode(req); err != nil {
			putRequest(req)
			// EOF is a clean client close and shutdown races are expected;
			// anything else is a protocol/peer failure worth surfacing.
			if err != io.EOF && ctx.Err() == nil && !errors.Is(err, net.ErrClosed) && onError != nil {
				onError(fmt.Errorf("transport: decode from %v: %w", conn.RemoteAddr(), err))
			}
			break
		}
		if req.Op == opCancel {
			inflightMu.Lock()
			cancel := inflight[req.Seq]
			inflightMu.Unlock()
			if cancel != nil {
				cancel()
			}
			putRequest(req)
			continue
		}
		var rctx context.Context
		var rcancel context.CancelFunc
		if req.Deadline > 0 {
			rctx, rcancel = context.WithDeadline(hardCtx, time.Unix(0, req.Deadline))
		} else {
			rctx, rcancel = context.WithCancel(hardCtx)
		}
		inflightMu.Lock()
		inflight[req.Seq] = rcancel
		inflightMu.Unlock()
		wg.Add(1)
		go func(req *request, rctx context.Context) {
			defer wg.Done()
			seq := req.Seq // survives the frame's return to the pool
			defer func() {
				inflightMu.Lock()
				delete(inflight, seq)
				inflightMu.Unlock()
				rcancel()
			}()
			resp := getResponse()
			resp.Seq = seq
			handle(rctx, backend, req, resp)
			writeMu.Lock()
			//plshvet:ignore lockorder one stateful gob encoder per connection: frame writes must serialize on it, and contention is bounded by frame size
			err := enc.Encode(resp)
			if err == nil {
				//plshvet:ignore lockorder the flush belongs to the same serialized frame write as the encode above
				err = bw.Flush()
			}
			writeMu.Unlock()
			// The answer lists are on the wire; hand them back to the
			// backend's buffer pool when it recycles (the in-process
			// Local does), then recycle both frames.
			if rel, ok := backend.(Releaser); ok && resp.Results != nil {
				rel.ReleaseResults(resp.Results)
			}
			putResponse(resp)
			putRequest(req)
			if err != nil && ctx.Err() == nil && !errors.Is(err, net.ErrClosed) && onError != nil {
				onError(fmt.Errorf("transport: encode to %v: %w", conn.RemoteAddr(), err))
			}
		}(req, rctx)
	}
	// The decode loop is done. On a real peer disconnect nobody will read
	// the remaining answers, so abort their backend work instead of
	// letting it run to completion. On a soft stop (serve context
	// canceled, connection still writable) the in-flight requests are
	// exactly what the drain window exists for: let them finish and
	// answer, bounded by hardCtx.
	if ctx.Err() == nil {
		inflightMu.Lock()
		for _, cancel := range inflight {
			cancel()
		}
		inflightMu.Unlock()
	}
	wg.Wait()
}

func handle(ctx context.Context, backend NodeClient, req *request, resp *response) {
	fail := func(err error) {
		if errors.Is(err, node.ErrFull) {
			resp.Code = codeFull
			return
		}
		if errors.Is(err, node.ErrNotFound) {
			resp.Code = codeNotFound
			return
		}
		if errors.Is(err, context.DeadlineExceeded) {
			resp.Code = codeDeadline
			return
		}
		resp.Code = codeError
		resp.Err = err.Error()
	}
	switch req.Op {
	case opInsert:
		ids, err := backend.Insert(ctx, req.Vectors)
		if err != nil {
			fail(err)
			break
		}
		resp.IDs = ids
	case opQueryBatch:
		res, err := backend.QueryBatch(ctx, req.Vectors)
		if err != nil {
			fail(err)
			break
		}
		// The decoded frame's vector count is the contract: a conforming
		// backend answers every query exactly once, so a length mismatch
		// is a backend bug to surface, not to paper over.
		if len(res) != len(req.Vectors) {
			fail(fmt.Errorf("transport: backend returned %d answer lists for %d queries",
				len(res), len(req.Vectors)))
			break
		}
		resp.Results = res
	case opQueryTopK:
		if len(req.Vectors) != 1 {
			fail(fmt.Errorf("transport: top-k frame carries %d vectors, want 1", len(req.Vectors)))
			break
		}
		res, err := backend.QueryTopK(ctx, req.Vectors[0], req.K)
		if err != nil {
			fail(err)
			break
		}
		resp.TopK = res
	case opSearch:
		p := req.Search
		if p == nil || p.Version == 0 {
			fail(errors.New("transport: search frame carries no parameters"))
			break
		}
		if p.Version > searchVersion {
			fail(fmt.Errorf("transport: search parameters v%d from peer, this server speaks v%d",
				p.Version, searchVersion))
			break
		}
		if p.Routing != 0 && p.Version < 2 {
			fail(fmt.Errorf("transport: search frame carries a routing hint but declares v%d", p.Version))
			break
		}
		res, err := backend.Search(ctx, req.Vectors, node.SearchParams{
			Radius:        p.Radius,
			K:             p.K,
			MaxCandidates: p.MaxCandidates,
			Routing:       p.Routing,
		})
		if err != nil {
			fail(err)
			break
		}
		if len(res) != len(req.Vectors) {
			fail(fmt.Errorf("transport: backend returned %d answer lists for %d queries",
				len(res), len(req.Vectors)))
			break
		}
		resp.Results = res
	case opDoc:
		v, known, err := backend.Doc(ctx, req.ID)
		if err != nil {
			fail(err)
			break
		}
		resp.Doc = v
		resp.Known = known
	case opDelete:
		if err := backend.Delete(ctx, req.ID); err != nil {
			fail(err)
		}
	case opMerge:
		if err := backend.MergeNow(ctx); err != nil {
			fail(err)
		}
	case opFlush:
		if err := backend.Flush(ctx); err != nil {
			fail(err)
		}
	case opRetire:
		if err := backend.Retire(ctx); err != nil {
			fail(err)
		}
	case opSave:
		if err := backend.Save(ctx); err != nil {
			fail(err)
		}
	case opStats:
		st, err := backend.Stats(ctx)
		if err != nil {
			fail(err)
			break
		}
		resp.Stats = st
	default:
		fail(fmt.Errorf("transport: unknown op %d", req.Op))
	}
}

// Client is a NodeClient over one TCP connection. Any number of calls may
// be in flight concurrently: each is assigned a sequence number, a writer
// goroutine serializes frames onto the wire, and a reader goroutine
// dispatches responses to waiting calls by sequence number. A canceled
// call returns ctx.Err() immediately — even while its frame is still
// queued behind a stalled send — and tells the server to abandon the
// request (best-effort cancel frame, plus the deadline carried in the
// request itself); its late response, if any, is discarded on arrival.
type Client struct {
	conn net.Conn

	writeCh chan *request // consumed by writeLoop in FIFO order
	dead    chan struct{} // closed when the connection is torn down

	mu      sync.Mutex // guards seq, pending, err, closed, down
	seq     uint64
	pending map[uint64]chan *response
	err     error // first terminal connection error
	closed  bool
	down    bool // dead already closed
}

// Dial connects to a node server at addr, honoring ctx for the dial
// itself.
func Dial(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		writeCh: make(chan *request, 16),
		dead:    make(chan struct{}),
		pending: map[uint64]chan *response{},
	}
	bw := bufio.NewWriter(conn)
	go c.writeLoop(gob.NewEncoder(bw), bw)
	go c.readLoop(gob.NewDecoder(bufio.NewReader(conn)))
	return c, nil
}

// writeLoop is the single writer: it drains queued frames onto the gob
// encoder until the connection dies, recycling each frame once it is
// encoded. Callers never block on a slow send — they wait on their
// response channel (or their context) instead. The write buffer is
// flushed only when the queue drains, so a burst of concurrent calls
// coalesces into fewer, larger writes.
func (c *Client) writeLoop(enc *gob.Encoder, bw *bufio.Writer) {
	for {
		select {
		case req := <-c.writeCh:
			err := enc.Encode(req)
			putRequest(req)
			if err == nil && len(c.writeCh) == 0 {
				err = bw.Flush()
			}
			if err != nil {
				c.fail(fmt.Errorf("transport: send: %w", err))
				return
			}
		case <-c.dead:
			return
		}
	}
}

// readLoop dispatches response frames to pending calls until the
// connection dies, then fails whatever is still waiting. Each frame is a
// pooled response struct; ownership passes to the waiting call, which
// recycles it after extracting the answer.
func (c *Client) readLoop(dec *gob.Decoder) {
	for {
		resp := getResponse()
		if err := dec.Decode(resp); err != nil {
			putResponse(resp)
			c.fail(fmt.Errorf("transport: receive: %w", err))
			return
		}
		c.mu.Lock()
		ch := c.pending[resp.Seq]
		delete(c.pending, resp.Seq)
		c.mu.Unlock()
		if ch != nil {
			ch <- resp // buffered; never blocks
		} else {
			// The call was canceled or the frame is stray — recycle it.
			putResponse(resp)
		}
	}
}

// fail records the connection's terminal error once, tears the
// connection down, and wakes every pending call. Idempotent; returns the
// underlying close error for Close's benefit.
func (c *Client) fail(err error) error {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	down := c.down
	c.down = true
	for seq, ch := range c.pending {
		delete(c.pending, seq)
		close(ch)
	}
	c.mu.Unlock()
	if !down {
		close(c.dead)
	}
	return c.conn.Close()
}

// terminalErr returns the error pending calls should report after their
// channel was closed without a response.
func (c *Client) terminalErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return errClosed
}

// do sends req — a pooled frame the caller filled via getRequest — and
// waits for its answer. Ownership of req passes to writeLoop on a
// successful enqueue (it recycles the frame after encoding); on the early
// abort paths do recycles it itself. A successful return hands the caller
// a pooled response to release with putResponse once the answer is
// extracted.
func (c *Client) do(ctx context.Context, req *request) (*response, error) {
	if err := ctx.Err(); err != nil {
		putRequest(req)
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		putRequest(req)
		return nil, errClosed
	}
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		putRequest(req)
		return nil, err
	}
	c.seq++
	seq := c.seq
	req.Seq = seq
	ch := respChPool.Get().(chan *response)
	c.pending[seq] = ch
	c.mu.Unlock()

	// Carry the caller's deadline to the server so abandoned work is
	// bounded there too.
	if dl, ok := ctx.Deadline(); ok {
		req.Deadline = dl.UnixNano()
	}

	select {
	case c.writeCh <- req:
	case <-ctx.Done():
		c.forget(seq)
		putRequest(req)
		return nil, ctx.Err()
	case <-c.dead:
		c.forget(seq)
		putRequest(req)
		return nil, c.terminalErr()
	}

	select {
	case resp, ok := <-ch:
		if !ok {
			// Closed by fail(); a closed channel cannot be reused.
			return nil, c.terminalErr()
		}
		respChPool.Put(ch) // drained, and seq is out of pending: safe to reuse
		switch resp.Code {
		case codeFull:
			putResponse(resp)
			return nil, node.ErrFull
		case codeNotFound:
			putResponse(resp)
			return nil, node.ErrNotFound
		case codeDeadline:
			putResponse(resp)
			return nil, context.DeadlineExceeded
		case codeError:
			err := fmt.Errorf("transport: remote: %s", resp.Err)
			putResponse(resp)
			return nil, err
		}
		return resp, nil
	case <-ctx.Done():
		// A late response may still land in ch; leave both to the GC.
		c.forget(seq)
		c.sendCancel(seq)
		return nil, ctx.Err()
	}
}

// forget abandons a pending call (cancellation or send failure); a late
// response for it will be discarded by readLoop.
func (c *Client) forget(seq uint64) {
	c.mu.Lock()
	delete(c.pending, seq)
	c.mu.Unlock()
}

// sendCancel tells the server to abandon seq. Best-effort: if the write
// queue is saturated or the connection is down the frame is dropped —
// the deadline carried in the original request still bounds the
// server-side work.
func (c *Client) sendCancel(seq uint64) {
	req := getRequest()
	req.Op = opCancel
	req.Seq = seq
	select {
	case c.writeCh <- req:
	case <-c.dead:
		putRequest(req)
	default:
		putRequest(req)
	}
}

// doEmpty runs an RPC whose response carries no payload beyond its code.
func (c *Client) doEmpty(ctx context.Context, req *request) error {
	resp, err := c.do(ctx, req)
	if err != nil {
		return err
	}
	putResponse(resp)
	return nil
}

// Insert implements NodeClient.
func (c *Client) Insert(ctx context.Context, vs []sparse.Vector) ([]uint32, error) {
	req := getRequest()
	req.Op = opInsert
	req.Vectors = vs
	resp, err := c.do(ctx, req)
	if err != nil {
		return nil, err
	}
	ids := resp.IDs
	putResponse(resp)
	return ids, nil
}

// QueryBatch implements NodeClient.
func (c *Client) QueryBatch(ctx context.Context, qs []sparse.Vector) ([][]core.Neighbor, error) {
	req := getRequest()
	req.Op = opQueryBatch
	req.Vectors = qs
	resp, err := c.do(ctx, req)
	if err != nil {
		return nil, err
	}
	res := resp.Results
	putResponse(resp)
	// The server guarantees one answer list per query; a mismatch means a
	// corrupt or non-conforming peer, not something to paper over.
	if len(res) != len(qs) {
		return nil, fmt.Errorf("transport: reply carries %d answer lists for %d queries",
			len(res), len(qs))
	}
	return res, nil
}

// Search implements NodeClient: one frame carries the batch and the
// versioned request-scoped parameter struct.
func (c *Client) Search(ctx context.Context, qs []sparse.Vector, p node.SearchParams) ([][]core.Neighbor, error) {
	req := getRequest()
	req.Op = opSearch
	req.Vectors = qs
	// Scatter searches declare the base revision so their frames stay
	// byte-identical to pre-routing clients; only a frame that actually
	// carries the routing hint claims v2 (and is rejected, loudly, by a
	// server too old to interpret it).
	v := uint8(searchVersionBase)
	if p.Routing != node.RoutingNone {
		v = searchVersion
	}
	req.sp = searchParams{
		Version:       v,
		Radius:        p.Radius,
		K:             p.K,
		MaxCandidates: p.MaxCandidates,
		Routing:       p.Routing,
	}
	req.Search = &req.sp
	resp, err := c.do(ctx, req)
	if err != nil {
		return nil, err
	}
	res := resp.Results
	putResponse(resp)
	if len(res) != len(qs) {
		return nil, fmt.Errorf("transport: reply carries %d answer lists for %d queries",
			len(res), len(qs))
	}
	return res, nil
}

// Doc implements NodeClient.
func (c *Client) Doc(ctx context.Context, id uint32) (sparse.Vector, bool, error) {
	req := getRequest()
	req.Op = opDoc
	req.ID = id
	resp, err := c.do(ctx, req)
	if err != nil {
		return sparse.Vector{}, false, err
	}
	v, known := resp.Doc, resp.Known
	putResponse(resp)
	return v, known, nil
}

// QueryTopK implements NodeClient.
func (c *Client) QueryTopK(ctx context.Context, q sparse.Vector, k int) ([]core.Neighbor, error) {
	req := getRequest()
	req.Op = opQueryTopK
	req.Vectors = []sparse.Vector{q}
	req.K = k
	resp, err := c.do(ctx, req)
	if err != nil {
		return nil, err
	}
	res := resp.TopK
	putResponse(resp)
	return res, nil
}

// Delete implements NodeClient.
func (c *Client) Delete(ctx context.Context, id uint32) error {
	req := getRequest()
	req.Op = opDelete
	req.ID = id
	return c.doEmpty(ctx, req)
}

// MergeNow implements NodeClient.
func (c *Client) MergeNow(ctx context.Context) error {
	req := getRequest()
	req.Op = opMerge
	return c.doEmpty(ctx, req)
}

// Flush implements NodeClient.
func (c *Client) Flush(ctx context.Context) error {
	req := getRequest()
	req.Op = opFlush
	return c.doEmpty(ctx, req)
}

// Retire implements NodeClient.
func (c *Client) Retire(ctx context.Context) error {
	req := getRequest()
	req.Op = opRetire
	return c.doEmpty(ctx, req)
}

// Save implements NodeClient.
func (c *Client) Save(ctx context.Context) error {
	req := getRequest()
	req.Op = opSave
	return c.doEmpty(ctx, req)
}

// Stats implements NodeClient.
func (c *Client) Stats(ctx context.Context) (node.Stats, error) {
	req := getRequest()
	req.Op = opStats
	resp, err := c.do(ctx, req)
	if err != nil {
		return node.Stats{}, err
	}
	st := resp.Stats
	putResponse(resp)
	return st, nil
}

// Broken reports whether the connection has failed terminally — every
// future call on this Client will fail without touching the network.
// Redial uses it to decide when a fresh dial is needed; a call that
// merely hit its context deadline leaves the connection healthy and
// Broken false.
func (c *Client) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil || c.closed
}

// Close implements NodeClient. In-flight calls fail with a closed-client
// error; Close is idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.fail(errClosed)
}

var _ NodeClient = (*Client)(nil)
