package serve

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/ml"
)

// TestRegistryLoadRoundTrip: a libra-train artifact loads into the registry
// and serves the same predictions the original forest makes.
func TestRegistryLoadRoundTrip(t *testing.T) {
	rf := fitTestForest(t)
	var buf bytes.Buffer
	if err := core.SaveClassifier(&core.MLClassifier{Model: rf}, &buf); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	if reg.Active() != nil {
		t.Fatal("fresh registry has an active model")
	}
	m, err := reg.Load("artifact.model", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != 1 || m.Name != "random-forest-q32" || m.Source != "artifact.model" || m.Classes != 3 {
		t.Fatalf("model metadata = %+v", m)
	}
	if reg.Active() != m {
		t.Fatal("loaded model is not active")
	}
	rows := testRows(32)
	got, want := m.pred.PredictBatch(rows, nil), rf.PredictBatch(rows, nil)
	for i := range rows {
		if got[i] != want[i] {
			t.Fatalf("row %d: loaded model predicts %d, original %d", i, got[i], want[i])
		}
	}
}

// TestRegistryQuantFormat: Load compiles every artifact to the quantized
// serving form, and on the float32 features both transports deliver it
// answers the classes and probabilities the float64 forest gives.
func TestRegistryQuantFormat(t *testing.T) {
	rf := fitTestForest(t)
	var artifact bytes.Buffer
	if err := core.SaveClassifier(&core.MLClassifier{Model: rf}, &artifact); err != nil {
		t.Fatal(err)
	}

	m, err := NewRegistry().Load("artifact", &artifact)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.pred.(*ml.QuantForest); !ok || m.Name != "random-forest-q32" {
		t.Fatalf("registry loaded %q as %T, want random-forest-q32 as *ml.QuantForest", m.Name, m.pred)
	}
	rows := testRows(50)
	got := m.pred.PredictBatch(rows, nil)
	proba := m.pred.PredictProbaBatch(rows, nil)
	for i, x := range rows {
		if want := rf.Predict(x); got[i] != want {
			t.Fatalf("row %d: quant %d, float64 %d", i, got[i], want)
		}
		for c, want := range rf.Proba(x) {
			if p := proba[i*m.Classes+c]; p != want {
				t.Fatalf("row %d class %d: quant proba %v, float64 %v", i, c, p, want)
			}
		}
	}
}

// TestRegistryLoadRejectsGarbage: a bad artifact leaves the registry as-is.
func TestRegistryLoadRejectsGarbage(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Load("junk", strings.NewReader("not a model")); err == nil {
		t.Fatal("garbage loaded without error")
	}
	if reg.Active() != nil {
		t.Fatal("failed load left a model active")
	}
}

// TestRegistryRollback exercises the one-step, reversible rollback chain.
func TestRegistryRollback(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Rollback(); !errors.Is(err, ErrNoRollback) {
		t.Fatalf("empty rollback err = %v, want ErrNoRollback", err)
	}
	a := reg.Install("a", &fakePred{class: 0, classes: 3})
	if _, err := reg.Rollback(); !errors.Is(err, ErrNoRollback) {
		t.Fatalf("single-model rollback err = %v, want ErrNoRollback", err)
	}
	b := reg.Install("b", &fakePred{class: 1, classes: 3})
	if reg.Active() != b || reg.Previous() != a {
		t.Fatalf("after two installs: active %v prev %v", reg.Active(), reg.Previous())
	}

	m, err := reg.Rollback()
	if err != nil || m != a || reg.Active() != a || reg.Previous() != b {
		t.Fatalf("rollback: m=%v err=%v active=%v prev=%v", m, err, reg.Active(), reg.Previous())
	}
	// A mistaken rollback is itself reversible.
	m, err = reg.Rollback()
	if err != nil || m != b || reg.Active() != b || reg.Previous() != a {
		t.Fatalf("re-rollback: m=%v err=%v", m, err)
	}

	// IDs keep increasing across swaps.
	c := reg.Install("c", &fakePred{class: 2, classes: 3})
	if c.ID != 3 {
		t.Fatalf("third install ID = %d, want 3", c.ID)
	}
}
