package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"github.com/libra-wlan/libra/internal/dataset"
)

// The request coalescer turns many concurrent single-prediction requests
// into few batched model invocations. Per-request forest inference walks
// every tree once per sample, evicting the forest's node array between
// requests; the batch paths (ml.QuantForest.PredictBatch and
// PredictProbaBatch) walk eight rows through each tree in lockstep, so the
// nodes stream through the cache once per eight rows instead of once per
// row, and the walk allocates nothing. Under concurrent load the coalescer
// recovers that locality: the dispatcher takes the first queued request
// plus everything else already queued, up to MaxBatch, runs one batch
// inference against an atomically captured model snapshot, and fans the
// rows back out. It never waits for company, so a batch is whatever arrived
// while the previous one ran and grows with load.
//
// The admission queue doubles as the service's backpressure valve: it is a
// bounded channel, and when it is full admission fails fast with
// ErrOverloaded instead of letting latency grow without bound (the HTTP
// layer translates that to 429). Request deadlines are honored
// cooperatively: a waiter abandons its slot when its context expires, and
// the dispatcher discards requests whose context is already dead at dequeue
// instead of spending model time on them.

// ErrOverloaded is returned when the admission queue is full.
var ErrOverloaded = errors.New("serve: admission queue full")

// ErrDraining is returned for requests arriving after Close began.
var ErrDraining = errors.New("serve: draining")

// Decision is one answered prediction.
type Decision struct {
	// Action is the classifier's verdict for the feature vector.
	Action dataset.Action
	// Proba is the per-class probability row (BA, RA, NA order).
	Proba []float64
	// Model identifies the registry version that answered.
	Model *Model
}

// pending is one request in flight through the coalescer.
type pending struct {
	x         []float64
	classOnly bool
	ctx       context.Context
	done      chan struct{}
	dec       Decision
	err       error

	// Audit identity (Router.SubmitTimed): reqID is client-chosen, linkID
	// is the routing key, shard is the ring's choice for it.
	reqID  uint64
	linkID uint64
	shard  uint16

	// Stage stamps for latency attribution. t0 is set by the transport when
	// the request arrives; the rest are stamped as the request crosses each
	// pipeline seam. All are written before done closes (or, for t0/tEnq,
	// before the request enters the queue), so the waiter reads them without
	// synchronization beyond Done.
	t0    time.Time // transport arrival (zero when the transport doesn't attribute)
	tEnq  time.Time // admission enqueue
	tDeq  time.Time // dispatcher dequeue
	tCap  time.Time // batch capture (flush start)
	tPred time.Time // model kernel finished for this request's batch
}

// Pending is the handle for a decision submitted without blocking
// (Router.SubmitTimed). It lets a pipelined transport interleave many
// in-flight requests on one goroutine: submit N, then await results in
// order.
type Pending struct {
	p *pending
}

// Done is closed when the decision (or its error) is ready.
func (t *Pending) Done() <-chan struct{} { return t.p.done }

// Result returns the decision; it must only be called after Done is closed.
func (t *Pending) Result() (Decision, error) { return t.p.dec, t.p.err }

// CoalescerConfig sizes the batching engine.
type CoalescerConfig struct {
	// MaxBatch is the largest model invocation (<= 0 selects 64; 1 flushes
	// every request alone, through the same queue).
	MaxBatch int
	// Deprecated: MaxLinger is ignored. The dispatcher flushes as soon as
	// the admission queue runs dry instead of waiting for company.
	MaxLinger time.Duration
	// QueueDepth bounds the admission queue (<= 0 selects 1024).
	QueueDepth int
}

// withDefaults resolves the zero values.
func (c CoalescerConfig) withDefaults() CoalescerConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	return c
}

// Coalescer batches concurrent decisions into the model's batch path.
type Coalescer struct {
	cfg   CoalescerConfig
	reg   *Registry
	queue chan *pending

	mu      sync.RWMutex
	closing bool

	dispatcherDone chan struct{}

	// Dispatcher-owned scratch (single goroutine, reused across batches).
	batch   []*pending
	classed []*pending
	x       [][]float64
	proba   []float64
	classes []int
}

// NewCoalescer starts a coalescer serving predictions from reg's active
// model. Callers own the lifecycle: Close drains and stops the dispatcher.
func NewCoalescer(reg *Registry, cfg CoalescerConfig) *Coalescer {
	cfg = cfg.withDefaults()
	c := &Coalescer{
		cfg:            cfg,
		reg:            reg,
		queue:          make(chan *pending, cfg.QueueDepth),
		dispatcherDone: make(chan struct{}),
		batch:          make([]*pending, 0, cfg.MaxBatch),
		classed:        make([]*pending, 0, cfg.MaxBatch),
		x:              make([][]float64, 0, cfg.MaxBatch),
	}
	go c.dispatch()
	return c
}

// admit enqueues p on the admission queue without waiting for the answer;
// p resolves when a batch containing it flushes. It fails fast with
// ErrDraining after Close began and ErrOverloaded when the queue is full.
// Router.SubmitTimed, which validates and counts the request, is its one
// caller.
func (c *Coalescer) admit(p *pending) error {
	c.mu.RLock()
	if c.closing {
		c.mu.RUnlock()
		return ErrDraining
	}
	select {
	case c.queue <- p:
		obsQueueDepth.Inc()
	default:
		c.mu.RUnlock()
		obsShed.Inc()
		return ErrOverloaded
	}
	c.mu.RUnlock()
	return nil
}

// Close stops admissions, waits for queued requests to be answered, and
// stops the dispatcher. Safe to call once; admissions racing with Close
// either complete normally or fail with ErrDraining.
func (c *Coalescer) Close() {
	c.mu.Lock()
	if c.closing {
		c.mu.Unlock()
		<-c.dispatcherDone
		return
	}
	c.closing = true
	c.mu.Unlock()
	// No sender can be inside the enqueue critical section now, and none
	// will enter it again, so closing the queue is safe; the dispatcher
	// flushes what remains and exits.
	close(c.queue)
	<-c.dispatcherDone
}

// dispatch is the single consumer of the admission queue. It is
// work-conserving: waiting for company would gain nothing, since a request
// due before the flush ends queues during it and joins the next batch.
// After Close closes the queue, the range answers everything still queued.
func (c *Coalescer) dispatch() {
	defer close(c.dispatcherDone)
	for p := range c.queue {
		batch := c.batch[:0]
		for {
			obsQueueDepth.Dec()
			p.tDeq = nowStamp()
			batch = append(batch, p)
			if len(batch) == c.cfg.MaxBatch {
				break
			}
			var ok bool
			select {
			case p, ok = <-c.queue:
			default:
			}
			if !ok {
				break // the queue ran dry or closed: flush what is here
			}
		}
		c.flush(batch)
	}
}

// flush answers one batch against one atomically captured model snapshot —
// a concurrent hot-swap never splits a batch across versions or drops a
// request. Class-only requests (the binary wire's default) go through the
// model's early-exit class kernel; requests wanting probabilities go
// through the exact-vote batch path. Both partitions use the same snapshot.
func (c *Coalescer) flush(batch []*pending) {
	tCap := nowStamp()
	// Discard requests whose waiter already gave up: their context is
	// dead, so model time spent on them is wasted. Partition survivors by
	// the path they need.
	live := batch[:0]
	classed := c.classed[:0]
	for _, p := range batch {
		if p.ctx.Err() != nil {
			p.err = p.ctx.Err()
			close(p.done)
			continue
		}
		p.tCap = tCap
		if p.classOnly {
			classed = append(classed, p)
		} else {
			live = append(live, p)
		}
	}
	c.classed = classed[:0]
	if len(live)+len(classed) == 0 {
		return
	}
	m := c.reg.Active()
	if m == nil {
		for _, p := range live {
			p.err = ErrNoModel
			close(p.done)
		}
		for _, p := range classed {
			p.err = ErrNoModel
			close(p.done)
		}
		return
	}
	obsBatchSize.Observe(float64(len(live) + len(classed)))

	if len(classed) > 0 {
		c.classifyClassOnly(m, classed)
		// Stamp after the kernel, before the fan-out: the predict span is
		// per-batch, honestly amortized over every decision it answered.
		tPred := nowStamp()
		for i, p := range classed {
			p.tPred = tPred
			p.dec = Decision{Action: dataset.Action(c.classes[i]), Model: m}
			close(p.done)
		}
	}
	if len(live) == 0 {
		return
	}
	x := c.x[:0]
	for _, p := range live {
		x = append(x, p.x)
	}
	c.x = x
	c.proba = m.pred.PredictProbaBatch(x, c.proba)
	tPred := nowStamp()
	nc := m.Classes
	for i, p := range live {
		row := c.proba[i*nc : (i+1)*nc]
		// The scratch row is reused by the next batch; hand the waiter
		// its own copy.
		p.tPred = tPred
		p.dec = Decision{
			Action: dataset.Action(argmax(row)),
			Proba:  append(make([]float64, 0, nc), row...),
			Model:  m,
		}
		close(p.done)
	}
}

// classifyClassOnly runs the class-only partition (the binary wire's
// default) through the captured snapshot's early-exit batch kernel: gather
// the feature rows into the dispatcher's scratch, predict once into
// c.classes. The fan-out (and its wall-clock stamp) lives in flush — the
// kernel is the per-batch steady state of the decide path, the throughput
// numbers in the shard benchmarks assume it never touches the allocator,
// and the annotation makes that a merge gate.
//
//lint:noalloc steady-state decide path; scratch is dispatcher-owned and reused
func (c *Coalescer) classifyClassOnly(m *Model, classed []*pending) {
	x := c.x[:0]
	for _, p := range classed {
		x = append(x, p.x)
	}
	c.x = x
	c.classes = m.pred.PredictBatch(x, c.classes)
}

// argmax returns the index of the first maximum, matching the forest's own
// tie-breaking (lowest class wins).
func argmax(row []float64) int {
	best, bestV := 0, row[0]
	for i, v := range row[1:] {
		if v > bestV {
			best, bestV = i+1, v
		}
	}
	return best
}
