package serve

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/ml"
)

// Predictor is what the serving layer needs from a model: the 0 B/op batch
// paths the coalescer's dispatcher calls. *ml.QuantForest, the form Load
// compiles every forest to, satisfies it; the indirection lets tests
// install synthetic (e.g. deliberately slow) models.
type Predictor interface {
	Name() string
	NumClasses() int
	PredictBatch(X [][]float64, out []int) []int
	PredictProbaBatch(X [][]float64, out []float64) []float64
}

// Model is one registry entry: an immutable fitted model plus its serving
// metadata. Decision batches capture a *Model once and use it for the whole
// batch, so a concurrent swap never splits or drops an in-flight request.
type Model struct {
	// ID is the registry-assigned version, monotonically increasing from 1.
	ID int `json:"id"`
	// Name is the model family ("random-forest-q32").
	Name string `json:"name"`
	// Source records where the model came from (a file path, "upload", or
	// "trained in-process").
	Source string `json:"source"`
	// Classes is the label-space width (3 for BA/RA/NA).
	Classes int `json:"classes"`

	pred Predictor
}

// ErrNoModel is returned while the registry has never been loaded.
var ErrNoModel = errors.New("serve: no model loaded")

// ErrNoRollback is returned when rollback has no previous model to restore.
var ErrNoRollback = errors.New("serve: no previous model to roll back to")

// FormatQuant32 names the one serving representation: Load compiles every
// forest to ml.QuantForest (float32 thresholds, 16-byte nodes, early-exit
// batch kernel), which classifies float32 feature vectors bit-identically
// to the float64 forest. Artifacts on disk stay float64 (core.SaveClassifier
// v2 and legacy v1).
const FormatQuant32 = "quant32"

// Registry holds the serving model with versioned, atomic hot-swap and
// one-step rollback. Reads (Active) are a single atomic pointer load on the
// decision hot path; swaps serialize on a mutex.
type Registry struct {
	active atomic.Pointer[Model]

	mu     sync.Mutex
	prev   *Model // rollback target: the model displaced by the last swap
	nextID int
}

// NewRegistry returns an empty registry; the server reports not-ready until
// the first Load or Install.
func NewRegistry() *Registry { return &Registry{nextID: 1} }

// Active returns the serving model, or nil before the first load.
func (r *Registry) Active() *Model { return r.active.Load() }

// Load parses a classifier artifact in the libra-model format (see
// core.SaveClassifier) from rd, compiles it to its quantized serving form
// and atomically swaps it in. source is recorded for /models listings.
// In-flight decision batches finish on the model they captured; requests
// admitted after Load returns see the new model.
func (r *Registry) Load(source string, rd io.Reader) (*Model, error) {
	clf, err := core.LoadClassifier(rd)
	if err != nil {
		return nil, err
	}
	rf, ok := clf.Model.(*ml.RandomForest)
	if !ok {
		return nil, fmt.Errorf("serve: model family %s has no quantized form", clf.Name())
	}
	q, err := rf.Quantize()
	if err != nil {
		return nil, fmt.Errorf("serve: quantize: %w", err)
	}
	return r.Install(source, q), nil
}

// Install registers an already-fitted predictor and atomically swaps it in.
func (r *Registry) Install(source string, pred Predictor) *Model {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := &Model{
		ID:      r.nextID,
		Name:    pred.Name(),
		Source:  source,
		Classes: pred.NumClasses(),
		pred:    pred,
	}
	r.nextID++
	r.prev = r.active.Swap(m)
	obsSwaps.Inc()
	return m
}

// Previous returns the rollback target: the model the last swap displaced,
// or nil when there is none.
func (r *Registry) Previous() *Model {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.prev
}

// Rollback atomically restores the model displaced by the last swap and
// returns it. The rolled-back-from model becomes the new rollback target,
// so a mistaken rollback is itself reversible.
func (r *Registry) Rollback() (*Model, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.prev == nil {
		return nil, ErrNoRollback
	}
	m := r.prev
	r.prev = r.active.Swap(m)
	obsSwaps.Inc()
	return m, nil
}
