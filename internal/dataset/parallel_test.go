package dataset

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/libra-wlan/libra/internal/obs"
)

// equalCampaigns reports field-level equality of two campaigns.
func equalCampaigns(t *testing.T, a, b *Campaign) {
	t.Helper()
	if a.Name != b.Name {
		t.Fatalf("names differ: %q vs %q", a.Name, b.Name)
	}
	if len(a.Entries) != len(b.Entries) {
		t.Fatalf("entry counts differ: %d vs %d", len(a.Entries), len(b.Entries))
	}
	for i := range a.Entries {
		if !reflect.DeepEqual(*a.Entries[i], *b.Entries[i]) {
			t.Fatalf("entry %d differs:\n%+v\nvs\n%+v", i, *a.Entries[i], *b.Entries[i])
		}
	}
	if !reflect.DeepEqual(a.Sites, b.Sites) {
		t.Fatalf("site registries differ")
	}
}

// TestParallelMatchesSequential is the campaign engine's core determinism
// guarantee: the parallel worker pool produces output identical to the
// sequential (single-worker) path, for any worker count, entry by entry and
// field by field.
func TestParallelMatchesSequential(t *testing.T) {
	seqMain := GenerateMainWorkers(42, 1)
	seqTest := GenerateTestWorkers(43, 1)
	for _, workers := range []int{2, 3, 8} {
		equalCampaigns(t, seqMain, GenerateMainWorkers(42, workers))
		equalCampaigns(t, seqTest, GenerateTestWorkers(43, workers))
	}
}

// TestParallelStableAcrossRuns guards against scheduling-dependent output:
// repeated parallel runs must be identical.
func TestParallelStableAcrossRuns(t *testing.T) {
	first := GenerateMainWorkers(42, 4)
	if got := len(first.Entries); got != 1336 {
		t.Fatalf("main campaign entries = %d, want 1336", got)
	}
	for run := 0; run < 2; run++ {
		equalCampaigns(t, first, GenerateMainWorkers(42, 4))
	}
	firstTest := GenerateTestWorkers(43, 4)
	if got := len(firstTest.Entries); got != 456 {
		t.Fatalf("test campaign entries = %d, want 456", got)
	}
	equalCampaigns(t, firstTest, GenerateTestWorkers(43, 4))
}

// traceBytes runs the test campaign under a fresh tracer and returns the
// exported trace.
func traceBytes(t *testing.T, workers int) []byte {
	t.Helper()
	tr := obs.NewTracer()
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)
	GenerateTestWorkers(43, workers)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceWorkerInvariance extends the determinism guarantee to the obs
// layer: the simulation-time trace of a fixed-seed campaign must be
// byte-identical for any worker count, because events are stamped with
// per-generator observation indices rather than anything scheduling-order
// dependent.
func TestTraceWorkerInvariance(t *testing.T) {
	want := traceBytes(t, 1)
	if len(want) == 0 {
		t.Fatal("single-worker campaign produced an empty trace")
	}
	for _, workers := range []int{2, 8} {
		if got := traceBytes(t, workers); !bytes.Equal(got, want) {
			t.Fatalf("trace bytes differ between 1 and %d workers (%d vs %d bytes)",
				workers, len(want), len(got))
		}
	}
}

// TestSpecPositionsMatchesRun pins the position accounting the deterministic
// sharding relies on: specPositions must predict exactly how many position
// IDs generator.run allocates per spec.
func TestSpecPositionsMatchesRun(t *testing.T) {
	for name, specs := range map[string][]*displacementSpec{"main": mainSpecs(), "test": testSpecs()} {
		for i, sp := range specs {
			g := newGenerator(1, "b")
			g.run(sp, int64(i+1)*1000)
			env := sp.envFn().Name
			if got, want := g.posSeq[env], specPositions(sp); got != want {
				t.Errorf("%s spec %d (%s): allocated %d positions, specPositions says %d",
					name, i, env, got, want)
			}
		}
	}
}

// TestGenerateContextCanceled covers the cooperative-cancellation contract:
// a pre-canceled context yields no campaign and the context's error, on both
// the sequential and the parallel dispatch paths.
func TestGenerateContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		camp, err := testCampaign.generate(ctx, 43, workers)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if camp != nil {
			t.Errorf("workers=%d: got a partial campaign on cancellation", workers)
		}
	}
	if _, err := GenerateTestContext(ctx, 43); !errors.Is(err, context.Canceled) {
		t.Errorf("GenerateTestContext err = %v, want context.Canceled", err)
	}
	if _, err := GenerateMainContext(ctx, 42); !errors.Is(err, context.Canceled) {
		t.Errorf("GenerateMainContext err = %v, want context.Canceled", err)
	}
}

// TestGenerateContextMatchesPlain: a context run that completes is
// byte-identical to the plain entry point for the same seed.
func TestGenerateContextMatchesPlain(t *testing.T) {
	got, err := GenerateTestContext(context.Background(), 43)
	if err != nil {
		t.Fatal(err)
	}
	equalCampaigns(t, GenerateTest(43), got)
}
