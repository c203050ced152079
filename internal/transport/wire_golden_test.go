package transport

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/hex"
	"net"
	"reflect"
	"testing"

	"plsh/internal/core"
	"plsh/internal/lshhash"
	"plsh/internal/node"
	"plsh/internal/sparse"
)

// TestOpcodeValuesStable pins every wire constant to its numeric value.
// The opcode block is append-only: a reordered or renumbered constant
// breaks mixed-version clusters silently (an old peer would run the
// wrong operation), so any diff here must be an append — this table
// grows, existing rows never change.
func TestOpcodeValuesStable(t *testing.T) {
	ops := []struct {
		name string
		got  op
		want uint8
	}{
		{"opInsert", opInsert, 1},
		{"opQueryBatch", opQueryBatch, 2},
		{"opQueryTopK", opQueryTopK, 3},
		{"opDelete", opDelete, 4},
		{"opMerge", opMerge, 5},
		{"opRetire", opRetire, 6},
		{"opStats", opStats, 7},
		{"opCancel", opCancel, 8},
		{"opFlush", opFlush, 9},
		{"opSave", opSave, 10},
		{"opSearch", opSearch, 11},
		{"opDoc", opDoc, 12},
	}
	for _, tc := range ops {
		if uint8(tc.got) != tc.want {
			t.Errorf("%s = %d, must stay %d (opcodes are append-only)", tc.name, tc.got, tc.want)
		}
	}
	codes := []struct {
		name string
		got  respCode
		want uint8
	}{
		{"codeOK", codeOK, 0},
		{"codeFull", codeFull, 1},
		{"codeError", codeError, 2},
		{"codeNotFound", codeNotFound, 3},
		{"codeDeadline", codeDeadline, 4},
	}
	for _, tc := range codes {
		if uint8(tc.got) != tc.want {
			t.Errorf("%s = %d, must stay %d (response codes are append-only)", tc.name, tc.got, tc.want)
		}
	}
	// v2 added the Routing hint; v1 frames are still decoded (gob fills
	// the missing field with zero = RoutingNone), so every older revision
	// stays servable. Frames without routing keep declaring v1, pinned by
	// the "search" golden frame below.
	if searchVersionBase != 1 {
		t.Errorf("searchVersionBase = %d; the base revision never moves", searchVersionBase)
	}
	if searchVersion != 2 {
		t.Errorf("searchVersion = %d; bump only with a compatible server-side decoder for every older revision", searchVersion)
	}
}

type goldenReq struct {
	name string
	req  request
}

func goldenVec() sparse.Vector {
	return sparse.Vector{Idx: []uint32{1, 5}, Val: []float32{0.5, 0.25}}
}

// goldenRequests is one canonical frame per opcode, in opcode order.
func goldenRequests() []goldenReq {
	return []goldenReq{
		{"insert", request{Seq: 1, Op: opInsert, Vectors: []sparse.Vector{goldenVec()}}},
		{"queryBatch", request{Seq: 2, Op: opQueryBatch, Vectors: []sparse.Vector{goldenVec()}, Deadline: 12345}},
		{"queryTopK", request{Seq: 3, Op: opQueryTopK, Vectors: []sparse.Vector{goldenVec()}, K: 7}},
		{"delete", request{Seq: 4, Op: opDelete, ID: 42}},
		{"merge", request{Seq: 5, Op: opMerge}},
		{"retire", request{Seq: 6, Op: opRetire}},
		{"stats", request{Seq: 7, Op: opStats}},
		{"cancel", request{Seq: 8, Op: opCancel}},
		{"flush", request{Seq: 9, Op: opFlush}},
		{"save", request{Seq: 10, Op: opSave}},
		{"search", request{Seq: 11, Op: opSearch, Vectors: []sparse.Vector{goldenVec()},
			Search: &searchParams{Version: 1, Radius: 1.25, K: 9, MaxCandidates: 100}}},
		{"doc", request{Seq: 12, Op: opDoc, ID: 99}},
		// The v2 routed-search frame: identical layout plus the Routing
		// hint. Scatter searches never emit it — the v1 "search" frame
		// above stays their exact wire form.
		{"searchRouted", request{Seq: 13, Op: opSearch, Vectors: []sparse.Vector{goldenVec()},
			Search: &searchParams{Version: 2, Radius: 0.9, K: 5, Routing: 1}}},
	}
}

// goldenStream is the byte-exact gob encoding of goldenRequests on one
// encoder (one encoder per connection, exactly like Client.writeLoop).
// It pins the request struct's field names, types, and the opcode
// numbering all at once: any change to the frame layout — renamed field,
// retyped field, renumbered opcode — shows up as a diff here and must be
// made as a backward-compatible append instead.
//
// Regenerated when searchParams grew the v2 Routing field: gob's
// one-time type descriptor for the struct names every field, so the
// descriptor block changed. The per-frame bytes of every pre-existing
// frame — including the v1 "search" frame — are unchanged (gob omits
// zero fields), which is what keeps scatter traffic byte-identical to
// pre-routing clients; the only new payload bytes are the appended
// "searchRouted" frame.
const goldenStream = "" +
	"567f030101077265717565737401ff80000107010353657101060001024f7001" +
	"06000107566563746f727301ff88000102494401060001014b01040001065365" +
	"6172636801ff8a000108446561646c696e6501040000001eff870201010f5b5d" +
	"7370617273652e566563746f7201ff880001ff82000026ff8103010106566563" +
	"746f7201ff82000102010349647801ff8400010356616c01ff8600000016ff83" +
	"020101085b5d75696e74333201ff84000106000017ff85020101095b5d666c6f" +
	"6174333201ff86000108000055ff890301010c736561726368506172616d7301" +
	"ff8a000105010756657273696f6e010600010652616469757301080001014b01" +
	"0400010d4d617843616e646964617465730104000107526f7574696e67010600" +
	"000016ff80010101010101010201050102fee03ffed03f00001aff8001020102" +
	"0101010201050102fee03ffed03f0004fe60720018ff80010301030101010201" +
	"050102fee03ffed03f00020e0009ff8001040104022a0007ff80010501050007" +
	"ff80010601060007ff80010701070007ff80010801080007ff80010901090007" +
	"ff80010a010a0023ff80010b010b0101010201050102fee03ffed03f00030101" +
	"01fef43f011201ffc8000009ff80010c010c02630028ff80010d010b01010102" +
	"01050102fee03ffed03f0003010201f8cdccccccccccec3f010a02010000"

// TestWireFramesGolden re-encodes the canonical frame sequence and
// requires the byte-exact golden stream, then decodes the golden bytes
// back and requires the canonical requests — so both directions of the
// frame layout are pinned.
func TestWireFramesGolden(t *testing.T) {
	reqs := goldenRequests()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, tc := range reqs {
		if err := enc.Encode(tc.req); err != nil {
			t.Fatal(err)
		}
	}
	got := hex.EncodeToString(buf.Bytes())
	if got != goldenStream {
		t.Fatalf("wire frame encoding changed; this breaks mixed-version clusters.\ngot:  %s\nwant: %s",
			got, goldenStream)
	}

	raw, err := hex.DecodeString(goldenStream)
	if err != nil {
		t.Fatal(err)
	}
	dec := gob.NewDecoder(bytes.NewReader(raw))
	for _, tc := range reqs {
		var back request
		if err := dec.Decode(&back); err != nil {
			t.Fatalf("%s: decoding golden bytes: %v", tc.name, err)
		}
		if !reflect.DeepEqual(back, tc.req) {
			t.Fatalf("%s: golden bytes decode to %+v, want %+v", tc.name, back, tc.req)
		}
	}
}

// goldenResponses is one canonical error-reply frame per sentinel code,
// in code order.
func goldenResponses() []response {
	return []response{
		{Seq: 1, Code: codeFull},
		{Seq: 2, Code: codeError, Err: "boom"},
		{Seq: 3, Code: codeNotFound},
		{Seq: 4, Code: codeDeadline},
	}
}

// goldenResponseBodies is the byte-exact gob encoding of each
// goldenResponses frame, one hex string per frame, with the message
// length and type id stripped: gob numbers types process-wide in first-use
// order, so the id depends on which tests ran first, while the field
// encoding after it is the per-frame layout a server writes.
var goldenResponseBodies = []string{
	"010101010500010000",
	"010201020104626f6f6d0400010000",
	"010301030500010000",
	"010401040500010000",
}

// gobUint decodes one gob unsigned integer from the front of b, returning
// it and the bytes after it.
func gobUint(t *testing.T, b []byte) (uint64, []byte) {
	t.Helper()
	if len(b) == 0 {
		t.Fatal("gob stream truncated")
	}
	if b[0] < 0x80 {
		return uint64(b[0]), b[1:]
	}
	n := int(-int8(b[0]))
	if n > 8 || len(b) < 1+n {
		t.Fatal("gob stream: malformed uint")
	}
	var v uint64
	for _, c := range b[1 : 1+n] {
		v = v<<8 | uint64(c)
	}
	return v, b[1+n:]
}

// TestResponseFramesGolden pins the error-reply frames both ways, like
// TestWireFramesGolden does for requests: each frame's field encoding is
// byte-exact, and the golden bodies decode back to the canonical frames.
func TestResponseFramesGolden(t *testing.T) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(response{}); err != nil { // sends the type descriptor
		t.Fatal(err)
	}
	warm := buf.Len()
	want := goldenResponses()
	for _, r := range want {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	rest := buf.Bytes()[warm:]
	var ids []byte // each frame's length-prefix-free type id bytes
	for i := range want {
		n, after := gobUint(t, rest)
		msg := after[:n]
		rest = after[n:]
		_, body := gobUint(t, msg)
		ids = append(ids, msg[:len(msg)-len(body)]...)
		if got := hex.EncodeToString(body); got != goldenResponseBodies[i] {
			t.Fatalf("seq %d: response frame encoding changed; this breaks mixed-version clusters.\ngot:  %s\nwant: %s",
				want[i].Seq, got, goldenResponseBodies[i])
		}
	}

	// Decode the golden bodies, re-framed under this process's type id.
	var stream bytes.Buffer
	stream.Write(buf.Bytes()[:warm])
	idLen := len(ids) / len(want)
	for _, h := range goldenResponseBodies {
		body, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		stream.WriteByte(byte(idLen + len(body)))
		stream.Write(ids[:idLen])
		stream.Write(body)
	}
	dec := gob.NewDecoder(&stream)
	var warmup response
	if err := dec.Decode(&warmup); err != nil {
		t.Fatal(err)
	}
	for _, w := range want {
		var back response
		if err := dec.Decode(&back); err != nil {
			t.Fatalf("seq %d: decoding golden bytes: %v", w.Seq, err)
		}
		if !reflect.DeepEqual(back, w) {
			t.Fatalf("seq %d: golden bytes decode to %+v, want %+v", w.Seq, back, w)
		}
	}
}

// TestSearchIdenticalAcrossTransports is the mixed-path satellite: the
// same Search (radius override, top-k bound, candidate budget) against
// the same node must answer byte-identically through transport.NewLocal
// and through a real TCP Client — the serialization layer may not perturb
// parameters or results.
func TestSearchIdenticalAcrossTransports(t *testing.T) {
	n, err := node.New(node.Config{
		Params:   lshhash.Params{Dim: 2000, K: 4, M: 16, Seed: 7},
		Capacity: 1000,
		Build:    core.Defaults(),
		Query:    core.QueryDefaults(),
	})
	if err != nil {
		t.Fatal(err)
	}
	local := NewLocal(n)
	docs := testDocs(400, 3)
	if _, err := local.Insert(context.Background(), docs); err != nil {
		t.Fatal(err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go Serve(ctx, l, local, nil)
	remote, err := Dial(context.Background(), l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	queries := docs[:16]
	for _, p := range []node.SearchParams{
		{},
		{Radius: 1.2},
		{K: 5},
		{Radius: 1.1, K: 3},
		{Radius: 1.3, MaxCandidates: 10},
	} {
		a, err := local.Search(context.Background(), queries, p)
		if err != nil {
			t.Fatalf("local search %+v: %v", p, err)
		}
		b, err := remote.Search(context.Background(), queries, p)
		if err != nil {
			t.Fatalf("tcp search %+v: %v", p, err)
		}
		if len(a) != len(b) {
			t.Fatalf("params %+v: %d vs %d answer lists", p, len(a), len(b))
		}
		for qi := range a {
			// gob decodes an empty slice as nil; normalize before the
			// byte-identical comparison.
			if len(a[qi]) == 0 && len(b[qi]) == 0 {
				continue
			}
			if !reflect.DeepEqual(a[qi], b[qi]) {
				t.Fatalf("params %+v query %d: local %+v, tcp %+v", p, qi, a[qi], b[qi])
			}
		}
	}

	// Doc crosses the wire unperturbed too.
	for _, id := range []uint32{0, 399} {
		va, ka, err := local.Doc(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		vb, kb, err := remote.Doc(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if ka != kb || !reflect.DeepEqual(va.Idx, vb.Idx) || !reflect.DeepEqual(va.Val, vb.Val) {
			t.Fatalf("doc %d differs across transports", id)
		}
	}
	if _, known, err := remote.Doc(context.Background(), 5000); err != nil || known {
		t.Fatalf("unknown id over TCP: known=%v err=%v", known, err)
	}
}
