package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/ml"
)

// decide answers one decision on the shard owning linkID: it submits, then
// waits for the batch or the context, as the transports do.
func decide(ctx context.Context, rt *Router, linkID uint64, x []float64) (Decision, error) {
	t, err := rt.Submit(ctx, linkID, x, false)
	if err != nil {
		return Decision{}, err
	}
	select {
	case <-t.Done():
		return t.Result()
	case <-ctx.Done():
		return Decision{}, ctx.Err()
	}
}

// fakePred is a controllable Predictor: it answers a fixed class, counts
// batch invocations and their sizes, and can block inside the model call
// until released (to pin requests in the queue).
type fakePred struct {
	class   int
	classes int
	gate    chan struct{} // non-nil: every batch call blocks until a receive succeeds
	entered atomic.Int32  // batch calls that reached the model, counted before the gate

	mu      sync.Mutex
	batches []int // size of each batch invocation
	samples int
}

func (f *fakePred) Name() string    { return "fake" }
func (f *fakePred) NumClasses() int { return f.classes }

func (f *fakePred) record(n int) {
	f.entered.Add(1)
	if f.gate != nil {
		<-f.gate
	}
	f.mu.Lock()
	f.batches = append(f.batches, n)
	f.samples += n
	f.mu.Unlock()
}

func (f *fakePred) row() []float64 {
	p := make([]float64, f.classes)
	p[f.class] = 1
	return p
}

func (f *fakePred) PredictBatch(X [][]float64, out []int) []int {
	f.record(len(X))
	out = out[:0]
	for range X {
		out = append(out, f.class)
	}
	return out
}
func (f *fakePred) PredictProbaBatch(X [][]float64, out []float64) []float64 {
	f.record(len(X))
	out = out[:0]
	for range X {
		out = append(out, f.row()...)
	}
	return out
}

func (f *fakePred) stats() (batches, samples, maxBatch int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, b := range f.batches {
		if b > maxBatch {
			maxBatch = b
		}
	}
	return len(f.batches), f.samples, maxBatch
}

// testRow is an arbitrary feature vector for fake-model tests.
var testRow = []float64{1, 2, 3, 4, 5, 6, 7}

// TestCoalescerBatches holds the first batch inside the model, admits the
// other requests behind it, then releases the model: the queued requests
// must ride in shared invocations of at most MaxBatch rows, every one
// answered correctly. No timer decides what batches together.
func TestCoalescerBatches(t *testing.T) {
	gate := make(chan struct{})
	pred := &fakePred{class: 1, classes: 3, gate: gate}
	reg := NewRegistry()
	reg.Install("test", pred)
	rt := NewRouter(reg, RouterConfig{Coalescer: CoalescerConfig{MaxBatch: 16}})
	defer rt.Close()

	const n = 64
	pend := make([]*Pending, n)
	for i := range pend {
		var err error
		if pend[i], err = rt.Submit(context.Background(), 0, testRow, false); err != nil {
			close(gate) // let the deferred Close drain the dispatcher
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	// Once the dispatcher has taken a first batch it blocks with it in the
	// gated model, and the rest sit in the queue until the gate opens.
	for len(rt.shards[0].queue) == n {
		runtime.Gosched()
	}
	close(gate)

	for i, p := range pend {
		<-p.Done()
		dec, err := p.Result()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if dec.Action != dataset.ActRA {
			t.Errorf("request %d: action = %v, want RA", i, dec.Action)
		}
		if len(dec.Proba) != 3 || dec.Proba[1] != 1 {
			t.Errorf("request %d: proba = %v, want one-hot class 1", i, dec.Proba)
		}
		if dec.Model == nil || dec.Model.ID != 1 {
			t.Errorf("request %d: model = %+v, want registry version 1", i, dec.Model)
		}
	}
	batches, samples, maxBatch := pred.stats()
	if samples != n {
		t.Fatalf("model saw %d samples, want %d", samples, n)
	}
	if batches >= n {
		t.Errorf("no coalescing: %d invocations for %d requests", batches, n)
	}
	if maxBatch > 16 {
		t.Errorf("batch of %d exceeds MaxBatch 16", maxBatch)
	}
}

// TestCoalescerNoLinger: a lone request is answered at once. The dispatcher
// never waits for company, however long the deprecated MaxLinger asks for.
func TestCoalescerNoLinger(t *testing.T) {
	pred := &fakePred{class: 0, classes: 3}
	reg := NewRegistry()
	reg.Install("test", pred)
	rt := NewRouter(reg, RouterConfig{Coalescer: CoalescerConfig{MaxBatch: 64, MaxLinger: time.Hour}})
	defer rt.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := decide(ctx, rt, 0, testRow); err != nil {
		t.Fatalf("lone Decide: %v, want a decision without waiting for company", err)
	}
}

// TestCoalescerMatchesDirect: for a real forest served in its quantized
// form, coalesced decisions are exactly what the float64 forest answers row
// by row, on the probability path and the class-only path sharing the same
// batches.
func TestCoalescerMatchesDirect(t *testing.T) {
	rf := fitTestForest(t)
	reg := NewRegistry()
	reg.Install("forest", quantize(t, rf))
	rt := NewRouter(reg, RouterConfig{Coalescer: CoalescerConfig{MaxBatch: 8}})
	defer rt.Close()

	rows := testRows(64)
	var wg sync.WaitGroup
	got := make([]Decision, len(rows))
	errs := make([]error, len(rows))
	for i := range rows {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := rt.Submit(context.Background(), 0, rows[i], i%2 == 1)
			if err != nil {
				errs[i] = err
				return
			}
			<-p.Done()
			got[i], errs[i] = p.Result()
		}(i)
	}
	wg.Wait()
	for i, x := range rows {
		if errs[i] != nil {
			t.Fatalf("row %d: %v", i, errs[i])
		}
		if want := dataset.Action(rf.Predict(x)); got[i].Action != want {
			t.Errorf("row %d: action %v vs forest %v", i, got[i].Action, want)
		}
		if i%2 == 1 {
			if len(got[i].Proba) != 0 {
				t.Errorf("class-only row %d carries probabilities %v", i, got[i].Proba)
			}
			continue
		}
		want := rf.Proba(x)
		if len(got[i].Proba) != len(want) {
			t.Fatalf("row %d: %d probabilities, forest has %d", i, len(got[i].Proba), len(want))
		}
		for c := range want {
			if got[i].Proba[c] != want[c] {
				t.Errorf("row %d class %d: proba %v vs forest %v", i, c, got[i].Proba[c], want[c])
			}
		}
	}
}

// TestCoalescerBatchOfOneSheds: MaxBatch 1 flushes one row at a time
// through the same bounded queue as any other batch size. With the first
// request blocked inside the model and a second filling the one-slot queue,
// the third sheds with ErrOverloaded.
func TestCoalescerBatchOfOneSheds(t *testing.T) {
	gate := make(chan struct{})
	pred := &fakePred{class: 2, classes: 3, gate: gate}
	reg := NewRegistry()
	reg.Install("test", pred)
	rt := NewRouter(reg, RouterConfig{Coalescer: CoalescerConfig{MaxBatch: 1, QueueDepth: 1}})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate) }) }
	defer func() {
		release()
		rt.Close()
	}()

	// Admission is awaited from a second goroutine with a bounded wait, so
	// a Submit that blocks on the model fails the test instead of hanging it.
	submit := func(i int) (*Pending, error) {
		t.Helper()
		type admitted struct {
			p   *Pending
			err error
		}
		c := make(chan admitted, 1)
		go func() {
			p, err := rt.Submit(context.Background(), 0, testRow, false)
			c <- admitted{p, err}
		}()
		select {
		case a := <-c:
			return a.p, a.err
		case <-time.After(2 * time.Second):
			t.Fatalf("request %d: Submit blocked for 2s instead of queueing or shedding", i)
			return nil, nil
		}
	}

	first, err := submit(1)
	if err != nil {
		t.Fatalf("first request: %v", err)
	}
	for deadline := time.Now().Add(2 * time.Second); pred.entered.Load() == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the dispatcher never took the first request into the model")
		}
	}
	second, err := submit(2)
	if err != nil {
		t.Fatalf("second request: %v, want it queued behind the first", err)
	}
	shedBefore := obsShed.Value()
	if _, err := submit(3); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third request: err = %v, want ErrOverloaded from the full queue", err)
	}
	if obsShed.Value() != shedBefore+1 {
		t.Errorf("shed counter advanced by %d, want 1", obsShed.Value()-shedBefore)
	}

	release()
	for i, p := range []*Pending{first, second} {
		<-p.Done()
		if dec, err := p.Result(); err != nil || dec.Action != dataset.ActNA {
			t.Errorf("admitted request %d: action %v, err %v", i+1, dec.Action, err)
		}
	}
	if batches, samples, maxBatch := pred.stats(); batches != 2 || samples != 2 || maxBatch != 1 {
		t.Errorf("model saw %d batches, %d samples, largest %d; want 2 one-row batches", batches, samples, maxBatch)
	}
}

// TestCoalescerOverload fills the bounded queue behind a blocked model and
// checks the next request sheds with ErrOverloaded while the queued ones
// complete once the model unblocks.
func TestCoalescerOverload(t *testing.T) {
	gate := make(chan struct{})
	pred := &fakePred{class: 0, classes: 3, gate: gate}
	reg := NewRegistry()
	reg.Install("test", pred)
	rt := NewRouter(reg, RouterConfig{Coalescer: CoalescerConfig{MaxBatch: 2, QueueDepth: 4}})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate) }) } // a closed gate unblocks every model call
	defer func() {
		release()
		rt.Close()
	}()

	// First requests occupy the dispatcher (blocked in the model) until the
	// queue itself is full. Shed behavior is reached when an admission
	// fails; keep launching until one does.
	shedBefore := obsShed.Value()
	var wg sync.WaitGroup
	results := make(chan error, 32)
	deadline := time.After(5 * time.Second)
	for launched := 0; ; launched++ {
		err := func() error {
			errc := make(chan error, 1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := decide(context.Background(), rt, 0, testRow)
				errc <- err
				results <- err
			}()
			select {
			case err := <-errc:
				return err
			case <-time.After(20 * time.Millisecond):
				return nil // still queued or in the model: keep going
			}
		}()
		if errors.Is(err, ErrOverloaded) {
			break
		}
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		select {
		case <-deadline:
			t.Fatal("queue never overflowed")
		default:
		}
		if launched > 20 {
			t.Fatal("queue deeper than configured: no shed after 20 requests")
		}
	}
	if obsShed.Value() == shedBefore {
		t.Error("shed counter did not advance")
	}

	// Unblock the model; every admitted request must complete successfully.
	release()
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil && !errors.Is(err, ErrOverloaded) {
			t.Errorf("admitted request failed: %v", err)
		}
	}
}

// TestCoalescerDeadline: a request whose context expires while the model is
// busy returns context.DeadlineExceeded.
func TestCoalescerDeadline(t *testing.T) {
	gate := make(chan struct{})
	pred := &fakePred{class: 0, classes: 3, gate: gate}
	reg := NewRegistry()
	reg.Install("test", pred)
	rt := NewRouter(reg, RouterConfig{Coalescer: CoalescerConfig{MaxBatch: 2, QueueDepth: 8}})
	defer func() {
		close(gate)
		rt.Close()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := decide(ctx, rt, 0, testRow)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestCoalescerDrain: Close answers everything already admitted and rejects
// later arrivals with ErrDraining.
func TestCoalescerDrain(t *testing.T) {
	pred := &fakePred{class: 2, classes: 3}
	reg := NewRegistry()
	reg.Install("test", pred)
	rt := NewRouter(reg, RouterConfig{Coalescer: CoalescerConfig{MaxBatch: 4}})

	const n = 32
	var ok atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := decide(context.Background(), rt, 0, testRow)
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrDraining):
			default:
				t.Errorf("Decide: %v", err)
			}
		}()
	}
	rt.Close()
	wg.Wait()
	if _, err := decide(context.Background(), rt, 0, testRow); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-Close Decide err = %v, want ErrDraining", err)
	}
	_, samples, _ := pred.stats()
	if int(ok.Load()) != samples {
		t.Errorf("%d requests succeeded but the model answered %d", ok.Load(), samples)
	}
}

// TestHotSwapUnderLoad is the zero-dropped-requests guarantee: with
// decisions in full flight, concurrent swaps and rollbacks never produce a
// failed request, and every answer is internally consistent with the model
// version that produced it (a batch is never split across versions).
func TestHotSwapUnderLoad(t *testing.T) {
	reg := NewRegistry()
	predA := &fakePred{class: 0, classes: 3}
	predB := &fakePred{class: 1, classes: 3}
	reg.Install("A", predA)
	rt := NewRouter(reg, RouterConfig{Coalescer: CoalescerConfig{MaxBatch: 8}})
	defer rt.Close()

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
			if i%3 == 2 {
				if _, err := reg.Rollback(); err != nil {
					t.Errorf("rollback: %v", err)
				}
			} else if i%2 == 0 {
				reg.Install("B", predB)
			} else {
				reg.Install("A", predA)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const workers = 16
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				dec, err := decide(context.Background(), rt, 0, testRow)
				if err != nil {
					t.Errorf("request dropped during hot-swap: %v", err)
					return
				}
				// Consistency: the answer must match the model that the
				// decision reports, proving the batch used one snapshot.
				wantClass := 0
				if dec.Model.pred == Predictor(predB) {
					wantClass = 1
				}
				if int(dec.Action) != wantClass {
					t.Errorf("action %d from model %q: batch split across versions", dec.Action, dec.Model.Source)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	swaps.Wait()
}

// fitTestForest trains a small real forest on synthetic 7-feature data.
func fitTestForest(t *testing.T) *ml.RandomForest {
	t.Helper()
	d := synthData(300, 7)
	rf := &ml.RandomForest{NumTrees: 12, MaxDepth: 6, Seed: 7}
	if err := rf.Fit(d); err != nil {
		t.Fatal(err)
	}
	return rf
}

// quantize compiles rf to the form Registry.Load serves.
func quantize(t *testing.T, rf *ml.RandomForest) *ml.QuantForest {
	t.Helper()
	q, err := rf.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// synthData builds a 3-class dataset whose label is a threshold on the
// first feature, with NumFeatures columns to satisfy the HTTP layer.
func synthData(n int, features int) *ml.Dataset {
	d := &ml.Dataset{}
	for i := 0; i < n; i++ {
		x := make([]float64, features)
		for j := range x {
			// Deterministic pseudo-data: a fixed recurrence, no RNG needed.
			x[j] = float64((i*31+j*17)%97) / 97
		}
		label := 0
		switch {
		case x[0] > 0.66:
			label = 2
		case x[0] > 0.33:
			label = 1
		}
		d.X, d.Y = append(d.X, x), append(d.Y, label)
	}
	return d
}

// testRows returns n deterministic 7-feature rows of float32 values, the
// features both transports decide on.
func testRows(n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		x := make([]float64, 7)
		for j := range x {
			x[j] = float64(float32((i*13+j*29)%89) / 89)
		}
		rows[i] = x
	}
	return rows
}
