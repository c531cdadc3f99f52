package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/ml"
)

// newTestServer wires a Server around reg behind an httptest listener.
func newTestServer(t *testing.T, reg *Registry, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	s := New(reg, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts, s
}

// decideBody encodes a /v1/decide request.
func decideBody(x []float64) *bytes.Reader {
	b, _ := json.Marshal(map[string]any{"features": x})
	return bytes.NewReader(b)
}

// postDecide issues one decision request and decodes the response.
func postDecide(t *testing.T, url string, x []float64) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/v1/decide", "application/json", decideBody(x))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding %d response: %v", resp.StatusCode, err)
	}
	return resp.StatusCode, body
}

// TestDecideHTTP covers the happy path and request validation.
func TestDecideHTTP(t *testing.T) {
	reg := NewRegistry()
	reg.Install("test", quantize(t, fitTestForest(t)))
	ts, _ := newTestServer(t, reg, Config{})

	code, body := postDecide(t, ts.URL, testRows(1)[0])
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %v", code, body)
	}
	action, _ := body["action"].(string)
	if action != "BA" && action != "RA" && action != "NA" {
		t.Errorf("action = %q, want BA/RA/NA", action)
	}
	proba, _ := body["proba"].([]any)
	if len(proba) != 3 {
		t.Fatalf("proba = %v, want 3 classes", body["proba"])
	}
	sum := 0.0
	for _, p := range proba {
		sum += p.(float64)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("proba sums to %v, want 1", sum)
	}
	if id, _ := body["model_id"].(float64); id != 1 {
		t.Errorf("model_id = %v, want 1", body["model_id"])
	}

	// Wrong dimensionality and malformed JSON are 400s.
	if code, _ := postDecide(t, ts.URL, []float64{1, 2}); code != http.StatusBadRequest {
		t.Errorf("short vector: status = %d, want 400", code)
	}
	resp, err := http.Post(ts.URL+"/v1/decide", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status = %d, want 400", resp.StatusCode)
	}
}

// TestReadinessAndModelLifecycle drives the not-ready -> upload -> swap ->
// rollback sequence over HTTP.
func TestReadinessAndModelLifecycle(t *testing.T) {
	reg := NewRegistry()
	ts, _ := newTestServer(t, reg, Config{})

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", code)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("empty /readyz = %d, want 503", code)
	}
	if code, _ := postDecide(t, ts.URL, testRows(1)[0]); code != http.StatusServiceUnavailable {
		t.Errorf("decide without model = %d, want 503", code)
	}

	upload := func(rf *ml.RandomForest, source string) map[string]any {
		var buf bytes.Buffer
		if err := core.SaveClassifier(&core.MLClassifier{Model: rf}, &buf); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/models?source="+source, "application/octet-stream", &buf)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		json.NewDecoder(resp.Body).Decode(&body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %s: status %d, body %v", source, resp.StatusCode, body)
		}
		return body
	}

	// Rollback with no history is a conflict.
	resp, err := http.Post(ts.URL+"/models/rollback", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("rollback with no history = %d, want 409", resp.StatusCode)
	}

	m1 := upload(fitTestForest(t), "first")
	if get("/readyz") != http.StatusOK {
		t.Error("/readyz not 200 after upload")
	}
	if m1["id"].(float64) != 1 || m1["source"].(string) != "first" {
		t.Errorf("first upload = %v", m1)
	}
	m2 := upload(fitTestForest(t), "second")
	if m2["id"].(float64) != 2 {
		t.Errorf("second upload = %v", m2)
	}

	// Listing shows the active and rollback versions.
	resp, err = http.Get(ts.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Active   *Model `json:"active"`
		Rollback *Model `json:"rollback"`
	}
	json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if listing.Active == nil || listing.Active.ID != 2 || listing.Rollback == nil || listing.Rollback.ID != 1 {
		t.Fatalf("listing = %+v", listing)
	}

	// Rollback restores version 1.
	resp, err = http.Post(ts.URL+"/models/rollback", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || m["id"].(float64) != 1 {
		t.Fatalf("rollback: status %d, body %v", resp.StatusCode, m)
	}
	if code, body := postDecide(t, ts.URL, testRows(1)[0]); code != http.StatusOK || body["model_id"].(float64) != 1 {
		t.Errorf("post-rollback decide: status %d, body %v", code, body)
	}

	// A garbage artifact is rejected without disturbing the active model.
	resp, err = http.Post(ts.URL+"/models", "application/octet-stream", strings.NewReader("libra-model v999 junk\n{}"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad artifact: status = %d, want 400", resp.StatusCode)
	}
	if reg.Active().ID != 1 {
		t.Errorf("bad upload disturbed the active model: %+v", reg.Active())
	}
}

// TestUploadRefusesUnsafeModel: a model whose tree splits on a feature the
// request does not carry is refused at upload with 400, and the active
// model keeps answering. Installed, such a tree would index past the
// request's features in the dispatcher.
func TestUploadRefusesUnsafeModel(t *testing.T) {
	const artifact = "libra-model v2 random-forest\n" +
		`{"version":1,"num_classes":3,"importance":[0,0,0,0,0,0,0],"trees":[{"nodes":[` +
		`{"leaf":false,"feature":99,"threshold":0.5,"left":1,"right":2},` +
		`{"leaf":true,"left":-1,"right":-1},{"leaf":true,"class":1,"left":-1,"right":-1}]}]}`
	reg := NewRegistry()
	reg.Install("test", quantize(t, fitTestForest(t)))
	ts, _ := newTestServer(t, reg, Config{})

	resp, err := http.Post(ts.URL+"/models?source=bad", "application/octet-stream", strings.NewReader(artifact))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("upload = %d (%s), want 400", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "feature 99") {
		t.Errorf("upload error %s does not name feature 99", body)
	}
	code, dec := postDecide(t, ts.URL, testRows(1)[0])
	if code != http.StatusOK {
		t.Fatalf("decide after refused upload = %d, body %v", code, dec)
	}
	if id, _ := dec["model_id"].(float64); id != 1 {
		t.Errorf("model_id = %v, want 1", dec["model_id"])
	}
}

// TestOverloadHTTP: with the queue saturated behind a blocked model, excess
// requests get 429 with Retry-After, the shed counter advances, and
// libra_serve_requests_total counts only the admitted requests (the 200s).
func TestOverloadHTTP(t *testing.T) {
	gate := make(chan struct{})
	pred := &fakePred{class: 0, classes: 3, gate: gate}
	reg := NewRegistry()
	reg.Install("blocking", pred)
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate) }) }
	defer release()
	ts, _ := newTestServer(t, reg, Config{
		Coalescer:      CoalescerConfig{MaxBatch: 2, QueueDepth: 2},
		DefaultTimeout: 10 * time.Second,
	})

	shedBefore, requestsBefore := obsShed.Value(), obsRequests.Value()
	const clients = 24
	codes := make(chan int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/decide", "application/json", decideBody(testRow))
			if err != nil {
				t.Errorf("post: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	// Let the herd pile up, then release the model.
	time.Sleep(300 * time.Millisecond)
	release()
	wg.Wait()
	close(codes)
	counts := map[int]int{}
	for c := range codes {
		counts[c]++
	}
	if counts[http.StatusTooManyRequests] == 0 {
		t.Errorf("no 429s under overload; codes = %v", counts)
	}
	if counts[http.StatusOK] == 0 {
		t.Errorf("no successes; codes = %v", counts)
	}
	if counts[http.StatusOK]+counts[http.StatusTooManyRequests] != clients {
		t.Errorf("unexpected statuses: %v", counts)
	}
	if obsShed.Value() == shedBefore {
		t.Error("shed counter did not advance")
	}
	if d := obsRequests.Value() - requestsBefore; d != uint64(counts[http.StatusOK]) {
		t.Errorf("libra_serve_requests_total advanced by %d for %d admitted requests; codes = %v",
			d, counts[http.StatusOK], counts)
	}
}

// TestHTTPRefusesFeatureBeyondFloat32: 1e300 is finite in JSON but +Inf once
// narrowed to the float32 every transport decides on, so admission refuses
// it with 400, counted once as an error and never as a request.
func TestHTTPRefusesFeatureBeyondFloat32(t *testing.T) {
	reg := NewRegistry()
	reg.Install("test", quantize(t, fitTestForest(t)))
	ts, _ := newTestServer(t, reg, Config{})

	errorsBefore, requestsBefore := obsErrors.Value(), obsRequests.Value()
	x := append([]float64(nil), testRows(1)[0]...)
	x[3] = 1e300
	if code, body := postDecide(t, ts.URL, x); code != http.StatusBadRequest {
		t.Fatalf("feature 1e300: status = %d, body %v; want 400", code, body)
	}
	if d := obsErrors.Value() - errorsBefore; d != 1 {
		t.Errorf("libra_serve_errors_total advanced by %d, want 1", d)
	}
	if d := obsRequests.Value() - requestsBefore; d != 0 {
		t.Errorf("libra_serve_requests_total advanced by %d for a refused request", d)
	}
}

// TestDeadlineHTTP: a decision that cannot complete within the default
// timeout comes back 504.
func TestDeadlineHTTP(t *testing.T) {
	gate := make(chan struct{})
	pred := &fakePred{class: 0, classes: 3, gate: gate}
	reg := NewRegistry()
	reg.Install("blocking", pred)
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate) }) }
	defer release()
	ts, _ := newTestServer(t, reg, Config{
		Coalescer:      CoalescerConfig{MaxBatch: 2},
		DefaultTimeout: 50 * time.Millisecond,
	})

	canceledBefore := obsCanceled.Value()
	resp, err := http.Post(ts.URL+"/v1/decide", "application/json", decideBody(testRow))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if obsCanceled.Value() == canceledBefore {
		t.Error("canceled counter did not advance")
	}
	release()
}

// TestHotSwapHTTPUnderLoad uploads models while decision traffic is in full
// flight: every request must succeed — the swap drops nothing.
func TestHotSwapHTTPUnderLoad(t *testing.T) {
	reg := NewRegistry()
	reg.Install("seed", quantize(t, fitTestForest(t)))
	ts, _ := newTestServer(t, reg, Config{
		Coalescer: CoalescerConfig{MaxBatch: 8},
	})

	var artifact bytes.Buffer
	if err := core.SaveClassifier(&core.MLClassifier{Model: fitTestForest(t)}, &artifact); err != nil {
		t.Fatal(err)
	}
	art := artifact.Bytes()

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Post(ts.URL+fmt.Sprintf("/models?source=swap-%d", i),
				"application/octet-stream", bytes.NewReader(art))
			if err != nil {
				t.Errorf("swap: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("swap: status %d", resp.StatusCode)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	const workers = 8
	const perWorker = 50
	row := testRows(1)[0]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				code, body := postDecide(t, ts.URL, row)
				if code != http.StatusOK {
					t.Errorf("request dropped during hot-swap: status %d, body %v", code, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	swapper.Wait()
}

// TestMetricsEndpoint: both exposition formats include the serve metrics.
func TestMetricsEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Install("test", quantize(t, fitTestForest(t)))
	ts, _ := newTestServer(t, reg, Config{})
	if code, _ := postDecide(t, ts.URL, testRows(1)[0]); code != http.StatusOK {
		t.Fatalf("decide = %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{
		"libra_serve_requests_total", "libra_serve_shed_total",
		"libra_serve_queue_depth", "libra_serve_batch_size",
		"libra_serve_decision_seconds", "libra_serve_swaps_total",
	} {
		if !bytes.Contains(text, []byte(name)) {
			t.Errorf("/metrics missing %s", name)
		}
	}

	resp, err = http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var parsed any
	err = json.NewDecoder(resp.Body).Decode(&parsed)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
}
