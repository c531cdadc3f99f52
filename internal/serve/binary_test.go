package serve

import (
	"context"
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"
)

// dialBinary connects to a binary-protocol listener and performs the
// handshake.
func dialBinary(addr string) (*BinaryClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewBinaryClient(conn)
}

// decideOnce sends one request and waits for its response, unpipelined.
func decideOnce(c *BinaryClient, reqID, linkID uint64, x []float32, wantProba bool) (*WireResponse, error) {
	if err := c.Send(reqID, linkID, x, wantProba); err != nil {
		return nil, err
	}
	if err := c.Flush(); err != nil {
		return nil, err
	}
	resp, err := c.Recv()
	if err == nil && resp.ReqID != reqID {
		err = errors.New("serve: response for a different request")
	}
	return resp, err
}

// TestWireRoundTrip pins the frame layout: encode → decode is the identity
// for requests and both response types.
func TestWireRoundTrip(t *testing.T) {
	x := []float32{1.5, -2.25, 0, float32(math.Inf(1)), 3.125, -0.5, 42}
	frame := appendDecideRequest(nil, 7, 99, true, x)
	if len(frame) != 4+reqHeadLen+4*len(x) {
		t.Fatalf("request frame is %d bytes", len(frame))
	}
	var req wireRequest
	if err := decodeDecideRequest(frame[4:], &req); err != nil {
		t.Fatal(err)
	}
	if req.ReqID != 7 || req.LinkID != 99 || req.Flags&wireFlagProba == 0 {
		t.Fatalf("decoded header %+v", req)
	}
	for i := range x {
		if req.X[i] != x[i] {
			t.Fatalf("feature %d: got %v want %v", i, req.X[i], x[i])
		}
	}

	proba := []float32{0.25, 0.5, 0.25}
	rf := appendResult(nil, 12, 2, 3, proba)
	var resp WireResponse
	if err := decodeResponse(rf[4:], &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ReqID != 12 || resp.Action != 2 || resp.ModelID != 3 || resp.Err != 0 {
		t.Fatalf("decoded result %+v", resp)
	}
	if len(resp.Proba) != 3 || resp.Proba[1] != 0.5 {
		t.Fatalf("decoded proba %v", resp.Proba)
	}

	ef := appendWireError(nil, 31, wireErrOverloaded)
	if err := decodeResponse(ef[4:], &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ReqID != 31 || resp.Err != wireErrOverloaded || len(resp.Proba) != 0 {
		t.Fatalf("decoded error %+v", resp)
	}

	// Truncation never decodes.
	for cut := 1; cut < len(frame)-4; cut++ {
		if err := decodeDecideRequest(frame[4:4+cut], &req); err == nil {
			t.Fatalf("truncated request of %d bytes decoded", cut)
		}
	}
}

// TestRingDeterministicAndSticky pins the consistent-hash contract: routing
// is a pure function of (shards, link), every shard owns keys, and growing
// the fleet moves only a fraction of them.
func TestRingDeterministicAndSticky(t *testing.T) {
	r1 := newRing(4)
	r2 := newRing(4)
	const links = 10000
	counts := make([]int, 4)
	for l := uint64(0); l < links; l++ {
		s := r1.shardFor(l)
		if s != r2.shardFor(l) {
			t.Fatalf("link %d routes differently on identical rings", l)
		}
		counts[s]++
	}
	for s, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d owns no links", s)
		}
		if n < links/4/4 || n > links {
			t.Fatalf("shard %d owns %d of %d links: ring badly unbalanced", s, n, links)
		}
	}
	// Adding a shard must not reshuffle everything: most links stay put.
	r5 := newRing(5)
	moved := 0
	for l := uint64(0); l < links; l++ {
		if r1.shardFor(l) != r5.shardFor(l) {
			moved++
		}
	}
	if moved > links/2 {
		t.Fatalf("%d of %d links moved when adding one shard", moved, links)
	}
}

// TestRouterShardStats drives decisions through the ring and checks the
// invariant CI's smoke test relies on: per-shard admissions sum to the
// total, and the same link always lands on the same shard.
func TestRouterShardStats(t *testing.T) {
	reg := NewRegistry()
	reg.Install("test", quantize(t, fitTestForest(t)))
	rt := NewRouter(reg, RouterConfig{Shards: 3, Coalescer: CoalescerConfig{MaxBatch: 8}})
	defer rt.Close()

	before := make([]uint64, 3)
	for i, st := range rt.ShardStats() {
		before[i] = st.Requests
	}
	row := testRows(1)[0]
	const n = 120
	for l := 0; l < n; l++ {
		if _, err := decide(context.Background(), rt, uint64(l), row); err != nil {
			t.Fatal(err)
		}
		if rt.ShardFor(uint64(l)) != rt.ShardFor(uint64(l)) {
			t.Fatal("routing is not sticky")
		}
	}
	var total uint64
	hit := 0
	for i, st := range rt.ShardStats() {
		d := st.Requests - before[i]
		total += d
		if d > 0 {
			hit++
		}
	}
	if total != n {
		t.Fatalf("shard admissions sum to %d, want %d", total, n)
	}
	if hit < 2 {
		t.Fatalf("only %d of 3 shards saw traffic", hit)
	}
}

// startBinary boots a binary server over a router on a loopback listener.
func startBinary(t *testing.T, rt *Router) (addr string, srv *BinaryServer) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv = NewBinaryServer(rt, 0)
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return ln.Addr().String(), srv
}

// TestBinaryDecideParity answers pipelined binary decides from a real
// quantized forest and checks every class against the model's own batch
// answers — the wire adds transport, not drift.
func TestBinaryDecideParity(t *testing.T) {
	q := quantize(t, fitTestForest(t))
	reg := NewRegistry()
	reg.Install("quant", q)
	rt := NewRouter(reg, RouterConfig{Shards: 2, Coalescer: CoalescerConfig{MaxBatch: 32}})
	defer rt.Close()
	addr, _ := startBinary(t, rt)

	c, err := dialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rows := testRows(64)
	want := q.PredictBatch(rows, nil)
	x32 := make([][]float32, len(rows))
	for i, row := range rows {
		x32[i] = make([]float32, len(row))
		for j, v := range row {
			x32[i][j] = float32(v)
		}
	}

	// Pipelined: all requests on the wire before the first Recv.
	for i := range x32 {
		if err := c.Send(uint64(i), uint64(i%7), x32[i], false); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := range x32 {
		resp, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if resp.ReqID != uint64(i) {
			t.Fatalf("response %d carries req_id %d: FIFO order broken", i, resp.ReqID)
		}
		if resp.Err != 0 {
			t.Fatalf("request %d failed with wire error %d", i, resp.Err)
		}
		if int(resp.Action) != want[i] {
			t.Fatalf("request %d: wire action %d, model class %d", i, resp.Action, want[i])
		}
		if len(resp.Proba) != 0 {
			t.Fatalf("class-only response %d carries %d probabilities", i, len(resp.Proba))
		}
	}

	// The proba flag returns the full row.
	resp, err := decideOnce(c, 1000, 3, x32[0], true)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != 0 || len(resp.Proba) != q.NumClasses() {
		t.Fatalf("proba decide: err %d, %d classes", resp.Err, len(resp.Proba))
	}
	wantP := q.PredictProbaBatch(rows[:1], nil)
	var sum float32
	for c2, p := range resp.Proba {
		if p != float32(wantP[c2]) {
			t.Fatalf("proba class %d: wire %v, model %v", c2, p, wantP[c2])
		}
		sum += p
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

// TestBinaryBadRequest: wrong feature count gets a typed error frame and
// the connection keeps serving.
func TestBinaryBadRequest(t *testing.T) {
	reg := NewRegistry()
	reg.Install("test", quantize(t, fitTestForest(t)))
	rt := NewRouter(reg, RouterConfig{Coalescer: CoalescerConfig{MaxBatch: 8}})
	defer rt.Close()
	addr, _ := startBinary(t, rt)
	c, err := dialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := decideOnce(c, 1, 0, []float32{1, 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != wireErrBadRequest {
		t.Fatalf("short feature vector answered with code %d, want %d", resp.Err, wireErrBadRequest)
	}
	good := make([]float32, len(testRows(1)[0]))
	resp, err = decideOnce(c, 2, 0, good, false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != 0 {
		t.Fatalf("connection did not survive a bad request: code %d", resp.Err)
	}
}

// TestBinaryRefusesNonFiniteFeatures: NaN, +Inf and -Inf features are
// answered with wireErrBadFeature (not a prediction, and not the malformed
// frame code), each counted once in libra_serve_errors_total, and the
// connection keeps serving.
func TestBinaryRefusesNonFiniteFeatures(t *testing.T) {
	reg := NewRegistry()
	reg.Install("test", quantize(t, fitTestForest(t)))
	rt := NewRouter(reg, RouterConfig{Coalescer: CoalescerConfig{MaxBatch: 8}})
	defer rt.Close()
	addr, _ := startBinary(t, rt)
	c, err := dialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	errorsBefore, requestsBefore := obsErrors.Value(), obsRequests.Value()
	bad := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for i, v := range bad {
		x := make([]float32, len(testRow))
		x[2] = v
		resp, err := decideOnce(c, uint64(i), 0, x, i == 0)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Err != wireErrBadFeature {
			t.Errorf("feature %v: code %d, action %d; want code %d", v, resp.Err, resp.Action, wireErrBadFeature)
		}
	}
	if d := obsErrors.Value() - errorsBefore; d != uint64(len(bad)) {
		t.Errorf("libra_serve_errors_total advanced by %d for %d refusals", d, len(bad))
	}
	if d := obsRequests.Value() - requestsBefore; d != 0 {
		t.Errorf("libra_serve_requests_total advanced by %d for refused requests", d)
	}
	resp, err := decideOnce(c, 9, 0, make([]float32, len(testRow)), false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != 0 {
		t.Fatalf("connection did not survive the refusals: code %d", resp.Err)
	}
}

// TestBinaryNoModel: decides before the first load fail fast with the
// typed code rather than hanging or tearing the connection.
func TestBinaryNoModel(t *testing.T) {
	rt := NewRouter(NewRegistry(), RouterConfig{Coalescer: CoalescerConfig{MaxBatch: 8}})
	defer rt.Close()
	addr, _ := startBinary(t, rt)
	c, err := dialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := decideOnce(c, 5, 0, make([]float32, len(testRows(1)[0])), false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != wireErrNoModel {
		t.Fatalf("code %d, want %d", resp.Err, wireErrNoModel)
	}
}

// TestHotSwapUnderBinaryPipeline extends TestHotSwapUnderLoad to the wire:
// models hot-swap continuously while a client keeps a deep pipeline of
// binary decides in flight. Every frame must decode (no torn frames),
// arrive in FIFO order, and report an action consistent with the model
// version that answered it (no batch split across versions).
func TestHotSwapUnderBinaryPipeline(t *testing.T) {
	reg := NewRegistry()
	predA := &fakePred{class: 0, classes: 3}
	predB := &fakePred{class: 1, classes: 3}

	// classByModel maps registry version -> the class its fake answers. A
	// version is recorded before Install publishes it: a pipelined decide can
	// be answered by the new version before Install returns.
	var classByModel sync.Map
	version := 0
	install := func(name string, p *fakePred) {
		version++ // Install assigns versions 1, 2, 3, ... in call order
		classByModel.Store(uint32(version), uint8(p.class))
		reg.Install(name, p)
	}
	install("A", predA)

	rt := NewRouter(reg, RouterConfig{Shards: 2, Coalescer: CoalescerConfig{MaxBatch: 8}})
	defer rt.Close()
	addr, _ := startBinary(t, rt)

	stop := make(chan struct{})
	var swaps sync.WaitGroup
	swaps.Add(1)
	go func() {
		defer swaps.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				install("B", predB)
			} else {
				install("A", predA)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	c, err := dialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	x := make([]float32, len(testRows(1)[0]))
	const total = 3000
	const window = 128
	sent, recvd := 0, 0
	for recvd < total {
		for sent < total && sent-recvd < window {
			if err := c.Send(uint64(sent), uint64(sent%13), x, sent%5 == 0); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		resp, err := c.Recv()
		if err != nil {
			t.Fatalf("after %d responses: %v", recvd, err)
		}
		if resp.ReqID != uint64(recvd) {
			t.Fatalf("response %d carries req_id %d: order broken under swaps", recvd, resp.ReqID)
		}
		if resp.Err != 0 {
			t.Fatalf("request %d dropped during hot-swap: wire error %d", recvd, resp.Err)
		}
		wantAny, ok := classByModel.Load(resp.ModelID)
		if !ok {
			t.Fatalf("response %d reports unknown model %d", recvd, resp.ModelID)
		}
		if resp.Action != wantAny.(uint8) {
			t.Fatalf("request %d: action %d from model %d: batch split across versions",
				recvd, resp.Action, resp.ModelID)
		}
		recvd++
	}
	close(stop)
	swaps.Wait()
}
