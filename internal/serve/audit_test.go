package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/ml"
	"github.com/libra-wlan/libra/internal/obs/decisionlog"
)

// auditRouter builds a router with an attached decision log writing into buf.
func auditRouter(t *testing.T, buf *bytes.Buffer, shards int, sample uint64, pred Predictor) (*Router, *decisionlog.Log) {
	t.Helper()
	reg := NewRegistry()
	reg.Install("test", pred)
	rt := NewRouter(reg, RouterConfig{
		Shards:    shards,
		Coalescer: CoalescerConfig{MaxBatch: 16},
	})
	l, err := decisionlog.New(buf, decisionlog.Config{
		NFeat:  len(testRow),
		Rings:  shards,
		Sample: sample,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetAudit(l)
	return rt, l
}

// TestAuditLogAcrossHotSwap pins the audit stream's version honesty: a model
// hot-swap mid-traffic must never produce an audit record whose ModelID
// differs from the version that actually answered that request on the wire.
// The wire response is the ground truth — both come from the same captured
// batch snapshot, so they must agree exactly.
func TestAuditLogAcrossHotSwap(t *testing.T) {
	var buf bytes.Buffer
	reg := NewRegistry()
	m1 := reg.Install("v1", quantize(t, fitTestForest(t)))
	rt := NewRouter(reg, RouterConfig{
		Shards:    2,
		Coalescer: CoalescerConfig{MaxBatch: 16},
	})
	l, err := decisionlog.New(&buf, decisionlog.Config{NFeat: len(testRow), Rings: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetAudit(l)
	addr, srv := startBinary(t, rt)
	c, err := dialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	x32 := make([]float32, len(testRow))
	for i, v := range testRow {
		x32[i] = float32(v)
	}
	wireModel := make(map[uint64]uint32)
	drive := func(base uint64, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := c.Send(base+uint64(i), base+uint64(i)*31, x32, false); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			resp, err := c.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if resp.Err != 0 {
				t.Fatalf("request %d failed with wire error %d", resp.ReqID, resp.Err)
			}
			wireModel[resp.ReqID] = resp.ModelID
		}
	}

	drive(0, 200)
	m2 := reg.Install("v2", quantize(t, fitTestForest(t)))
	if m2.ID == m1.ID {
		t.Fatalf("hot-swap did not bump the model version: %d", m2.ID)
	}
	drive(1000, 200)

	srv.Close()
	rt.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := decisionlog.Read(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Records) != 400 {
		t.Fatalf("audit log holds %d records, want 400", len(data.Records))
	}
	versions := map[uint32]int{}
	for _, rec := range data.Records {
		if rec.Kind != decisionlog.KindDecision {
			t.Fatalf("unexpected record kind %d", rec.Kind)
		}
		want, ok := wireModel[rec.ReqID]
		if !ok {
			t.Fatalf("audit record for unknown req_id %d", rec.ReqID)
		}
		if rec.ModelID != want {
			t.Fatalf("req %d: audit says model %d, wire answered with %d — audit stream lied about the batch's version",
				rec.ReqID, rec.ModelID, want)
		}
		versions[rec.ModelID]++
	}
	// The swap happened between the two waves, so both versions must appear.
	if versions[uint32(m1.ID)] == 0 || versions[uint32(m2.ID)] == 0 {
		t.Fatalf("expected both model versions in the audit log, got %v", versions)
	}
}

// TestBinaryFeedbackJoinsAuditStream drives decides plus ground-truth
// feedback over the binary wire and checks the log carries a joinable truth
// record for every sampled decision — and only for sampled ones, since both
// kinds go through the same deterministic predicate.
func TestBinaryFeedbackJoinsAuditStream(t *testing.T) {
	var buf bytes.Buffer
	rt, l := auditRouter(t, &buf, 2, 4, quantize(t, fitTestForest(t)))
	addr, srv := startBinary(t, rt)
	c, err := dialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	x32 := make([]float32, len(testRow))
	for i, v := range testRow {
		x32[i] = float32(v)
	}
	const n = 256
	for i := 0; i < n; i++ {
		if err := c.Send(uint64(i), uint64(i)*31, x32, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := c.SendFeedback(uint64(i), uint64(i)*31, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Feedback is fire-and-forget; a decide round-trip fences it so the
	// server has consumed every prior frame before we shut down.
	if _, err := decideOnce(c, 1<<40, 0, x32, false); err != nil {
		t.Fatal(err)
	}

	srv.Close()
	rt.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := decisionlog.Read(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	decisions := map[uint64]bool{}
	truths := map[uint64]bool{}
	for _, rec := range data.Records {
		switch rec.Kind {
		case decisionlog.KindDecision:
			decisions[rec.ReqID] = true
		case decisionlog.KindTruth:
			truths[rec.ReqID] = true
			if rec.Action != 1 {
				t.Fatalf("truth record %d carries action %d, want 1", rec.ReqID, rec.Action)
			}
		}
	}
	if len(decisions) == 0 || len(decisions) == n {
		t.Fatalf("1/4 sampling kept %d of %d decisions", len(decisions), n)
	}
	for id := range truths {
		if id >= n {
			continue // the fencing decide
		}
		if !decisions[id] {
			t.Fatalf("truth %d has no matching sampled decision", id)
		}
	}
	for id := range decisions {
		if id >= n {
			continue
		}
		if !truths[id] {
			t.Fatalf("sampled decision %d got no truth record", id)
		}
	}
	// Every sampled decision must carry its request identity and non-zero
	// model version; the latency columns are wall-clock and only need to be
	// populated where a stage exists (predict is always real).
	for _, rec := range data.Records {
		if rec.Kind != decisionlog.KindDecision {
			continue
		}
		if rec.ModelID == 0 {
			t.Fatalf("decision %d carries model 0", rec.ReqID)
		}
		if rec.Feat[0] != float32(testRow[0]) {
			t.Fatalf("decision %d feature 0 = %v, want %v", rec.ReqID, rec.Feat[0], testRow[0])
		}
	}
}

// TestHTTPFeedbackAndStageMetrics exercises the JSON transport end of the
// audit stream: req_id threads through POST /v1/decide into the log, POST
// /v1/feedback lands a truth record, and the per-stage histograms on
// /metrics accumulate observations.
func TestHTTPFeedbackAndStageMetrics(t *testing.T) {
	var buf bytes.Buffer
	reg := NewRegistry()
	reg.Install("test", quantize(t, fitTestForest(t)))
	s := New(reg, Config{Shards: 2})
	l, err := decisionlog.New(&buf, decisionlog.Config{NFeat: len(testRow), Rings: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Router().SetAudit(l)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/v1/decide", `{"features":[1,2,3,4,5,6,7],"link_id":9,"req_id":77}`); code != http.StatusOK {
		t.Fatalf("decide returned %d", code)
	}
	if code := post("/v1/feedback", `{"req_id":77,"link_id":9,"action_id":2}`); code != http.StatusNoContent {
		t.Fatalf("feedback returned %d", code)
	}
	if code := post("/v1/feedback", `{"req_id":77,"link_id":9,"action_id":-1}`); code != http.StatusBadRequest {
		t.Fatalf("out-of-range feedback returned %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	if _, err := metrics.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, stage := range []string{"admission", "queue", "coalesce", "predict", "encode"} {
		want := `libra_serve_stage_seconds_count{stage="` + stage + `"}`
		if !strings.Contains(metrics.String(), want) {
			t.Fatalf("/metrics is missing %s", want)
		}
	}

	ts.Close()
	s.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := decisionlog.Read(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sawDecision, sawTruth bool
	for _, rec := range data.Records {
		switch rec.Kind {
		case decisionlog.KindDecision:
			if rec.ReqID == 77 && rec.LinkID == 9 {
				sawDecision = true
			}
		case decisionlog.KindTruth:
			if rec.ReqID == 77 && rec.LinkID == 9 && rec.Action == 2 {
				sawTruth = true
			}
		}
	}
	if !sawDecision || !sawTruth {
		t.Fatalf("audit log missing the decide/feedback pair: decision=%v truth=%v (%d records)",
			sawDecision, sawTruth, len(data.Records))
	}
}

// TestRouterSubmitTimedStampsShard checks the router stamps the owning shard
// into the pending, matching the ring, so audit records attribute to the
// right shard.
func TestRouterSubmitTimedStampsShard(t *testing.T) {
	reg := NewRegistry()
	reg.Install("test", quantize(t, fitTestForest(t)))
	rt := NewRouter(reg, RouterConfig{Shards: 3, Coalescer: CoalescerConfig{MaxBatch: 1}})
	defer rt.Close()
	for link := uint64(0); link < 64; link++ {
		p, err := rt.SubmitTimed(context.Background(), link, testRow, true, link, nowStamp())
		if err != nil {
			t.Fatal(err)
		}
		<-p.Done()
		if int(p.p.shard) != rt.ShardFor(link) {
			t.Fatalf("link %d stamped shard %d, ring says %d", link, p.p.shard, rt.ShardFor(link))
		}
		if p.p.reqID != link || p.p.linkID != link {
			t.Fatalf("audit identity lost: %+v", p.p)
		}
	}
}

// TestHTTPDecisionReplaysFromAuditRecord: an HTTP decision is made on the
// float32 features its audit record carries, so replaying the record
// through the served artifact gives the served action. The forest splits
// feature 0 midway between 0.1 (BA) and 0.2 (RA), at 0.15000000000000002:
// 0.15 falls below that split in float64, but its float32,
// 0.15000000596, falls above it.
func TestHTTPDecisionReplaysFromAuditRecord(t *testing.T) {
	row := func(f0 float64) []float64 {
		x := make([]float64, dataset.NumFeatures)
		x[0] = f0
		return x
	}
	d := &ml.Dataset{}
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			d.X, d.Y = append(d.X, row(0.1)), append(d.Y, int(dataset.ActBA))
		} else {
			d.X, d.Y = append(d.X, row(0.2)), append(d.Y, int(dataset.ActRA))
		}
	}
	rf := &ml.RandomForest{NumTrees: 9, MaxDepth: 4, MaxFeatures: dataset.NumFeatures, Seed: 3}
	if err := rf.Fit(d); err != nil {
		t.Fatal(err)
	}
	if rf.Predict(row(0.15)) != int(dataset.ActBA) || rf.Predict(row(float64(float32(0.15)))) != int(dataset.ActRA) {
		t.Fatal("the forest does not split feature 0 between 0.15 and its float32; the test lost its premise")
	}
	var artifact bytes.Buffer
	if err := core.SaveClassifier(&core.MLClassifier{Model: rf}, &artifact); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	if _, err := reg.Load("artifact", bytes.NewReader(artifact.Bytes())); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{})
	var buf bytes.Buffer
	l, err := decisionlog.New(&buf, decisionlog.Config{NFeat: dataset.NumFeatures, Rings: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Router().SetAudit(l)
	ts := httptest.NewServer(s.Handler())
	code, body := postDecide(t, ts.URL, row(0.15))
	ts.Close()
	s.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK {
		t.Fatalf("decide: status %d, body %v", code, body)
	}
	served, _ := body["action_id"].(float64)

	data, err := decisionlog.Read(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Records) != 1 || data.Records[0].Kind != decisionlog.KindDecision {
		t.Fatalf("audit log holds %d records, want the one decision", len(data.Records))
	}
	rec := data.Records[0]
	clf, err := core.LoadClassifier(bytes.NewReader(artifact.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	replay := make([]float64, dataset.NumFeatures)
	for i := range replay {
		replay[i] = float64(rec.Feat[i])
	}
	want := clf.Classify(replay)
	if int(served) != int(want) || rec.Action != uint8(want) {
		t.Fatalf("served %v, recorded %v, but the record's features replay to %v",
			dataset.Action(served), dataset.Action(rec.Action), want)
	}
}
