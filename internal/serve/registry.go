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
// paths the coalescer's dispatcher calls. *ml.RandomForest — the only
// family core.LoadClassifier produces today — and *ml.QuantForest satisfy
// it; the indirection keeps the registry open to future families and lets
// tests install synthetic (e.g. deliberately slow) models.
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
	// Name is the model family ("random-forest").
	Name string `json:"name"`
	// Source records where the model came from (a file path, "upload", or
	// "trained in-process").
	Source string `json:"source"`
	// Classes is the label-space width (3 for BA/RA/NA).
	Classes int `json:"classes"`

	pred Predictor
}

// Predictor returns the model's fitted predictor.
func (m *Model) Predictor() Predictor { return m.pred }

// ErrNoModel is returned while the registry has never been loaded.
var ErrNoModel = errors.New("serve: no model loaded")

// ErrNoRollback is returned when rollback has no previous model to restore.
var ErrNoRollback = errors.New("serve: no previous model to roll back to")

// Serving model formats: what representation a loaded artifact takes on
// the decide path. Artifacts on disk stay float64 (core.SaveClassifier v2
// and legacy v1); the registry converts at load time.
const (
	// FormatFloat64 serves the forest's float64 flat arrays as persisted.
	FormatFloat64 = "float64"
	// FormatQuant32 compiles random forests to the quantized flat
	// representation (ml.QuantForest): float32 thresholds, 16-byte nodes,
	// early-exit batch kernel — bit-identical predicted classes on
	// float32-representable inputs.
	FormatQuant32 = "quant32"
)

// ErrBadFormat is returned for an unknown model format.
var ErrBadFormat = errors.New(`serve: unknown model format (want "float64" or "quant32")`)

// Registry holds the serving model with versioned, atomic hot-swap and
// one-step rollback. Reads (Active) are a single atomic pointer load on the
// decision hot path; swaps serialize on a mutex.
type Registry struct {
	active atomic.Pointer[Model]

	mu     sync.Mutex
	prev   *Model // rollback target: the model displaced by the last swap
	nextID int
	format string // "" or FormatFloat64 serve as persisted
}

// NewRegistry returns an empty registry; the server reports not-ready until
// the first Load or Install.
func NewRegistry() *Registry { return &Registry{nextID: 1} }

// Active returns the serving model, or nil before the first load.
func (r *Registry) Active() *Model { return r.active.Load() }

// Load parses a classifier artifact in the libra-model format (see
// core.SaveClassifier) from rd and atomically swaps it in. source is
// recorded for /models listings. In-flight decision batches finish on the
// model they captured; requests admitted after Load returns see the new
// model.
func (r *Registry) Load(source string, rd io.Reader) (*Model, error) {
	clf, err := core.LoadClassifier(rd)
	if err != nil {
		return nil, err
	}
	pred, ok := clf.Model.(Predictor)
	if !ok {
		return nil, fmt.Errorf("serve: model family %s lacks the batch prediction paths", clf.Name())
	}
	if r.Format() == FormatQuant32 {
		rf, ok := clf.Model.(*ml.RandomForest)
		if !ok {
			return nil, fmt.Errorf("serve: model family %s has no quantized form", clf.Name())
		}
		q, err := rf.Quantize()
		if err != nil {
			return nil, fmt.Errorf("serve: quantize: %w", err)
		}
		pred = q
	}
	return r.Install(source, pred), nil
}

// SetFormat selects the serving representation applied by subsequent Loads
// (FormatFloat64 or FormatQuant32; "" means FormatFloat64). Already-loaded
// models keep the representation they were loaded with.
func (r *Registry) SetFormat(format string) error {
	switch format {
	case "", FormatFloat64, FormatQuant32:
	default:
		return ErrBadFormat
	}
	r.mu.Lock()
	r.format = format
	r.mu.Unlock()
	return nil
}

// Format returns the representation applied by Load.
func (r *Registry) Format() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.format == "" {
		return FormatFloat64
	}
	return r.format
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
