package transport

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"plsh/internal/core"
	"plsh/internal/corpus"
	"plsh/internal/lshhash"
	"plsh/internal/node"
	"plsh/internal/persist"
	"plsh/internal/sparse"
)

var bg = context.Background()

func testNode(t *testing.T, capacity int) *node.Node {
	t.Helper()
	n, err := node.New(node.Config{
		Params:   lshhash.Params{Dim: 2000, K: 8, M: 6, Seed: 42},
		Capacity: capacity,
		Build:    core.Defaults(),
		Query:    core.QueryDefaults(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func testDocs(n int, seed uint64) []sparse.Vector {
	c := corpus.Generate(corpus.Twitter(n, 2000, seed))
	out := make([]sparse.Vector, n)
	for i := 0; i < n; i++ {
		out[i] = c.Mat.Row(i)
	}
	return out
}

// startBackend serves backend on an ephemeral port, returning its address
// and a shutdown func that cancels the server context.
func startBackend(t *testing.T, backend NodeClient, onError func(error)) (string, context.CancelFunc) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	t.Cleanup(cancel)
	go Serve(ctx, l, backend, onError)
	return l.Addr().String(), cancel
}

func startServer(t *testing.T, n *node.Node) (string, context.CancelFunc) {
	t.Helper()
	return startBackend(t, NewLocal(n), nil)
}

// stubBackend implements NodeClient with overridable behavior per method;
// unset methods answer successfully with zero values.
type stubBackend struct {
	insert     func(ctx context.Context, vs []sparse.Vector) ([]uint32, error)
	queryBatch func(ctx context.Context, qs []sparse.Vector) ([][]core.Neighbor, error)
	stats      func(ctx context.Context) (node.Stats, error)
}

func (s *stubBackend) Insert(ctx context.Context, vs []sparse.Vector) ([]uint32, error) {
	if s.insert != nil {
		return s.insert(ctx, vs)
	}
	return make([]uint32, len(vs)), nil
}

func (s *stubBackend) QueryBatch(ctx context.Context, qs []sparse.Vector) ([][]core.Neighbor, error) {
	if s.queryBatch != nil {
		return s.queryBatch(ctx, qs)
	}
	return make([][]core.Neighbor, len(qs)), nil
}

func (s *stubBackend) QueryTopK(ctx context.Context, q sparse.Vector, k int) ([]core.Neighbor, error) {
	return nil, nil
}

func (s *stubBackend) Search(ctx context.Context, qs []sparse.Vector, p node.SearchParams) ([][]core.Neighbor, error) {
	return make([][]core.Neighbor, len(qs)), nil
}

func (s *stubBackend) Doc(ctx context.Context, id uint32) (sparse.Vector, bool, error) {
	return sparse.Vector{}, false, nil
}
func (s *stubBackend) Delete(ctx context.Context, id uint32) error { return nil }
func (s *stubBackend) MergeNow(ctx context.Context) error          { return nil }
func (s *stubBackend) Flush(ctx context.Context) error             { return nil }
func (s *stubBackend) Retire(ctx context.Context) error            { return nil }
func (s *stubBackend) Save(ctx context.Context) error              { return nil }
func (s *stubBackend) Stats(ctx context.Context) (node.Stats, error) {
	if s.stats != nil {
		return s.stats(ctx)
	}
	return node.Stats{}, nil
}
func (s *stubBackend) Close() error { return nil }

func TestLocalRoundTrip(t *testing.T) {
	n := testNode(t, 500)
	var client NodeClient = NewLocal(n)
	vs := testDocs(100, 1)
	ids, err := client.Insert(bg, vs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 100 {
		t.Fatalf("ids = %d", len(ids))
	}
	res, err := client.QueryBatch(bg, vs[:5])
	if err != nil {
		t.Fatal(err)
	}
	for i := range res[:5] {
		found := false
		for _, nb := range res[i] {
			if nb.ID == uint32(i) {
				found = true
			}
		}
		if !found {
			t.Fatalf("doc %d not found via Local client", i)
		}
	}
	st, err := client.Stats(bg)
	if err != nil || st.StaticLen+st.DeltaLen != 100 {
		t.Fatalf("stats: %+v err=%v", st, err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTCPMatchesLocal runs the same operations against a Local client and
// a TCP client backed by identical nodes, asserting identical answers —
// the wire layer must be semantically invisible.
func TestTCPMatchesLocal(t *testing.T) {
	nLocal := testNode(t, 500)
	nRemote := testNode(t, 500)
	addr, _ := startServer(t, nRemote)

	remote, err := Dial(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	local := NewLocal(nLocal)

	vs := testDocs(200, 3)
	queries := testDocs(15, 9)

	idsL, err := local.Insert(bg, vs)
	if err != nil {
		t.Fatal(err)
	}
	idsR, err := remote.Insert(bg, vs)
	if err != nil {
		t.Fatal(err)
	}
	if len(idsL) != len(idsR) {
		t.Fatalf("id counts differ: %d vs %d", len(idsL), len(idsR))
	}
	for i := range idsL {
		if idsL[i] != idsR[i] {
			t.Fatalf("id %d differs: %d vs %d", i, idsL[i], idsR[i])
		}
	}

	resL, _ := local.QueryBatch(bg, queries)
	resR, err := remote.QueryBatch(bg, queries)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range queries {
		a := append([]core.Neighbor(nil), resL[qi]...)
		b := append([]core.Neighbor(nil), resR[qi]...)
		core.SortNeighbors(a)
		core.SortNeighbors(b)
		if len(a) != len(b) {
			t.Fatalf("query %d: %d vs %d results", qi, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID {
				t.Fatalf("query %d result %d differs", qi, i)
			}
		}
	}

	// Top-K answers must match across transports too.
	for qi, q := range queries {
		a, err := local.QueryTopK(bg, q, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := remote.QueryTopK(bg, q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("top-k query %d: %d vs %d results", qi, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID {
				t.Fatalf("top-k query %d result %d differs", qi, i)
			}
		}
	}

	// Delete + merge + retire propagate.
	if err := remote.Delete(bg, idsR[0]); err != nil {
		t.Fatal(err)
	}
	if err := remote.MergeNow(bg); err != nil {
		t.Fatal(err)
	}
	st, err := remote.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != 1 || st.DeltaLen != 0 {
		t.Fatalf("remote stats after delete+merge: %+v", st)
	}
	if err := remote.Retire(bg); err != nil {
		t.Fatal(err)
	}
	st, _ = remote.Stats(bg)
	if st.StaticLen != 0 {
		t.Fatalf("remote retire did not empty node: %+v", st)
	}
}

// ErrFull must survive the trip through the multiplexed protocol as a
// matchable sentinel.
func TestTCPErrFullSentinel(t *testing.T) {
	n := testNode(t, 50)
	addr, _ := startServer(t, n)
	client, err := Dial(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	vs := testDocs(80, 5)
	if _, err := client.Insert(bg, vs[:50]); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Insert(bg, vs[50:]); !errors.Is(err, node.ErrFull) {
		t.Fatalf("want ErrFull across the wire, got %v", err)
	}
}

func TestClientClosedErrors(t *testing.T) {
	n := testNode(t, 50)
	addr, _ := startServer(t, n)
	client, err := Dial(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	client.Close()
	if _, err := client.Stats(bg); err == nil {
		t.Fatal("closed client accepted a call")
	}
	if err := client.Close(); err != nil {
		t.Fatal("double Close errored")
	}
}

func TestConcurrentClients(t *testing.T) {
	n := testNode(t, 1000)
	vs := testDocs(200, 7)
	if _, err := NewLocal(n).Insert(bg, vs); err != nil {
		t.Fatal(err)
	}
	addr, _ := startServer(t, n)

	const clients = 4
	errCh := make(chan error, clients)
	for g := 0; g < clients; g++ {
		go func() {
			c, err := Dial(bg, addr)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for rep := 0; rep < 10; rep++ {
				if _, err := c.QueryBatch(bg, vs[:3]); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}()
	}
	for g := 0; g < clients; g++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentInFlightSingleConn proves the protocol multiplexes: the
// backend blocks every QueryBatch until `lanes` of them have arrived, so
// the test completes only if all `lanes` RPCs are simultaneously in flight
// on ONE connection. A serial one-request-at-a-time protocol deadlocks
// here (and trips the watchdog).
func TestConcurrentInFlightSingleConn(t *testing.T) {
	const lanes = 8
	var (
		mu      sync.Mutex
		arrived int
		release = make(chan struct{})
	)
	backend := &stubBackend{
		queryBatch: func(ctx context.Context, qs []sparse.Vector) ([][]core.Neighbor, error) {
			mu.Lock()
			arrived++
			if arrived == lanes {
				close(release)
			}
			mu.Unlock()
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			// Echo the lane tag (the query's first index) so the client can
			// verify responses were dispatched to the right caller.
			return [][]core.Neighbor{{{ID: qs[0].Idx[0], Dist: 0}}}, nil
		},
	}
	addr, _ := startBackend(t, backend, nil)
	client, err := Dial(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(bg, 30*time.Second) // watchdog, not a pacing device
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, lanes)
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			q := sparse.Vector{Idx: []uint32{uint32(lane)}, Val: []float32{1}}
			res, err := client.QueryBatch(ctx, []sparse.Vector{q})
			if err != nil {
				errs[lane] = err
				return
			}
			if len(res) != 1 || len(res[0]) != 1 || res[0][0].ID != uint32(lane) {
				errs[lane] = errors.New("response misrouted")
			}
		}(lane)
	}
	wg.Wait()
	for lane, err := range errs {
		if err != nil {
			t.Fatalf("lane %d: %v", lane, err)
		}
	}
}

// TestServerShutdownMidRequest: canceling the server context while a
// request is being handled must fail the client call with an error — not
// leave it hanging.
func TestServerShutdownMidRequest(t *testing.T) {
	started := make(chan struct{}, 1)
	backend := &stubBackend{
		queryBatch: func(ctx context.Context, qs []sparse.Vector) ([][]core.Neighbor, error) {
			started <- struct{}{}
			<-ctx.Done() // block until shutdown
			return nil, ctx.Err()
		},
	}
	addr, shutdown := startBackend(t, backend, nil)
	client, err := Dial(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	done := make(chan error, 1)
	go func() {
		_, err := client.QueryBatch(bg, testDocs(1, 3))
		done <- err
	}()
	<-started
	shutdown()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call succeeded through a server shutdown")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("call hung across server shutdown")
	}
}

// TestCanceledCallReturnsEarly: a client-side cancellation must abort the
// waiting call with ctx.Err() even though the server never responds.
func TestCanceledCallReturnsEarly(t *testing.T) {
	backend := &stubBackend{
		queryBatch: func(ctx context.Context, qs []sparse.Vector) ([][]core.Neighbor, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	}
	addr, _ := startBackend(t, backend, nil)
	client, err := Dial(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithCancel(bg)
	done := make(chan error, 1)
	go func() {
		_, err := client.QueryBatch(ctx, testDocs(1, 5))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled call did not return")
	}

	// The connection survives a canceled call: subsequent RPCs work.
	st, err := client.Stats(bg)
	if err != nil {
		t.Fatalf("call after cancellation failed: %v (stats %+v)", err, st)
	}
}

// TestCancelPropagatesToServer: abandoning a call client-side must abort
// the backend work server-side (via the cancel frame / carried deadline),
// not just stop the client from waiting.
func TestCancelPropagatesToServer(t *testing.T) {
	aborted := make(chan struct{}, 1)
	backend := &stubBackend{
		queryBatch: func(ctx context.Context, qs []sparse.Vector) ([][]core.Neighbor, error) {
			<-ctx.Done()
			select {
			case aborted <- struct{}{}:
			default:
			}
			return nil, ctx.Err()
		},
	}
	addr, _ := startBackend(t, backend, nil)
	client, err := Dial(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithCancel(bg)
	done := make(chan error, 1)
	go func() {
		_, err := client.QueryBatch(ctx, testDocs(1, 7))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("client call: %v", err)
	}
	// The server's handler must observe the abort without the server
	// itself shutting down.
	select {
	case <-aborted:
	case <-time.After(10 * time.Second):
		t.Fatal("server-side work kept running after client cancellation")
	}
}

// TestClientDisconnectAbortsServerWork: when the client connection drops
// entirely, the server abandons the in-flight backend work instead of
// computing answers nobody will read.
func TestClientDisconnectAbortsServerWork(t *testing.T) {
	aborted := make(chan struct{}, 1)
	started := make(chan struct{}, 1)
	backend := &stubBackend{
		queryBatch: func(ctx context.Context, qs []sparse.Vector) ([][]core.Neighbor, error) {
			started <- struct{}{}
			<-ctx.Done()
			select {
			case aborted <- struct{}{}:
			default:
			}
			return nil, ctx.Err()
		},
	}
	addr, _ := startBackend(t, backend, nil)
	client, err := Dial(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	go client.QueryBatch(bg, testDocs(1, 11)) // fails when the client closes
	<-started
	client.Close()
	select {
	case <-aborted:
	case <-time.After(10 * time.Second):
		t.Fatal("server-side work kept running after the client disconnected")
	}
}

// TestDeadlinePropagatesToServer: the request carries the caller's
// deadline, so server-side work is bounded even without a cancel frame.
func TestDeadlinePropagatesToServer(t *testing.T) {
	sawDeadline := make(chan bool, 1)
	backend := &stubBackend{
		queryBatch: func(ctx context.Context, qs []sparse.Vector) ([][]core.Neighbor, error) {
			_, ok := ctx.Deadline()
			select {
			case sawDeadline <- ok:
			default:
			}
			return make([][]core.Neighbor, len(qs)), nil
		},
	}
	addr, _ := startBackend(t, backend, nil)
	client, err := Dial(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(bg, 30*time.Second)
	defer cancel()
	if _, err := client.QueryBatch(ctx, testDocs(1, 9)); err != nil {
		t.Fatal(err)
	}
	if ok := <-sawDeadline; !ok {
		t.Fatal("caller deadline did not reach the server-side context")
	}
}

// TestRemoteDeadlineIsDeadlineExceeded: when the server-side context
// expires first — its deadline is rebuilt from wall-clock nanoseconds, so
// it can run ahead of the caller's own — the backend's ctx.Err() must
// reach the caller as context.DeadlineExceeded, not as a flattened remote
// error string. The backend here sees an already-expired deadline while
// the caller's is 30 s away, which pins the server-first ordering.
func TestRemoteDeadlineIsDeadlineExceeded(t *testing.T) {
	backend := &stubBackend{
		queryBatch: func(ctx context.Context, qs []sparse.Vector) ([][]core.Neighbor, error) {
			ctx, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
			defer cancel()
			<-ctx.Done()
			return nil, ctx.Err()
		},
	}
	addr, _ := startBackend(t, backend, nil)
	client, err := Dial(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(bg, 30*time.Second)
	defer cancel()
	_, err = client.QueryBatch(ctx, testDocs(1, 13))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if ctx.Err() != nil {
		t.Fatal("the caller's own deadline expired; the test no longer isolates the remote reply")
	}
	// The connection stays usable after a deadline reply.
	if _, err := client.Stats(bg); err != nil {
		t.Fatalf("call after a remote deadline failed: %v", err)
	}
}

// TestDecodeErrorSurfaced: garbage on the wire must reach the server's
// error callback instead of silently dropping the connection.
func TestDecodeErrorSurfaced(t *testing.T) {
	errCh := make(chan error, 1)
	addr, _ := startBackend(t, &stubBackend{}, func(err error) {
		select {
		case errCh <- err:
		default:
		}
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("this is not a gob stream")); err != nil {
		t.Fatal(err)
	}
	// Close mid-"frame": the garbage length prefix promises more bytes than
	// ever arrive, so the decoder fails with an unexpected EOF (not the
	// clean io.EOF of an idle close).
	conn.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("nil error surfaced")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("decode error never surfaced")
	}
}

// Flush and MergeNow cross the wire: a remote MergeNow leaves the node
// fully static, and a remote Flush settles the background auto-merges a
// burst of inserts triggered.
func TestTCPMergeAndFlush(t *testing.T) {
	n := testNode(t, 2000)
	addr, _ := startServer(t, n)
	remote, err := Dial(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	if _, err := remote.Insert(bg, testDocs(300, 13)); err != nil {
		t.Fatal(err)
	}
	if err := remote.Flush(bg); err != nil {
		t.Fatal(err)
	}
	st, err := remote.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st.MergeInFlight {
		t.Fatalf("Flush returned with a merge in flight: %+v", st)
	}
	if err := remote.MergeNow(bg); err != nil {
		t.Fatal(err)
	}
	if st, err = remote.Stats(bg); err != nil || st.DeltaLen != 0 || st.StaticLen != 300 {
		t.Fatalf("post-merge stats: %+v err=%v", st, err)
	}
}

// TestTCPSaveAndNotFound exercises the two newest wire codes end to end:
// opSave checkpoints a durable backend's data directory, and a delete of
// a never-inserted id comes back as node.ErrNotFound (codeNotFound), not
// a generic remote error.
func TestTCPSaveAndNotFound(t *testing.T) {
	dir := t.TempDir()
	n, err := node.New(node.Config{
		Params:   lshhash.Params{Dim: 2000, K: 8, M: 6, Seed: 42},
		Capacity: 500,
		Build:    core.Defaults(),
		Query:    core.QueryDefaults(),
		Dir:      dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	addr, _ := startBackend(t, NewLocal(n), nil)
	remote, err := Dial(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	ids, err := remote.Insert(bg, testDocs(40, 17))
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.Delete(bg, ids[0]); err != nil {
		t.Fatalf("valid delete over TCP: %v", err)
	}
	if err := remote.Delete(bg, 40); !errors.Is(err, node.ErrNotFound) {
		t.Fatalf("out-of-range delete over TCP: want ErrNotFound, got %v", err)
	}
	if err := remote.Save(bg); err != nil {
		t.Fatalf("Save over TCP: %v", err)
	}
	if _, err := persist.ReadSnapshot(dir); err != nil {
		t.Fatalf("no valid snapshot after remote Save: %v", err)
	}

	// An in-memory backend refuses the checkpoint with a remote error.
	mem := testNode(t, 100)
	addr2, _ := startBackend(t, NewLocal(mem), nil)
	remote2, err := Dial(bg, addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer remote2.Close()
	if err := remote2.Save(bg); err == nil {
		t.Fatal("Save on in-memory node succeeded over TCP")
	}
}
