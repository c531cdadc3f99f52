package engine

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/sim"
)

// goldenSpec is the pinned 4-AP/64-station scenario. The CI sim-smoke job
// runs the same scenario through cmd/libra-sim (-aps 4 -stations 64
// -duration 500ms -seed 1) and greps for goldenDigest, so a change here must
// change both together — and any change to the digest means the engine's
// arithmetic or event order moved, which is exactly what this test exists to
// catch.
func goldenSpec() Spec {
	return Spec{
		APs: 4, Stations: 64,
		Duration: 500 * time.Millisecond,
		Seed:     1,
		Params: sim.Params{
			BAOverhead: 5 * time.Millisecond,
			FAT:        2 * time.Millisecond,
		},
		Policy: sim.BAFirst,
	}
}

const goldenDigest = "874960926038cfd882ce49e973b790cf8c9812a64d3f60227a85e2179ea965c4"

func TestGoldenDigest(t *testing.T) {
	sc, err := Build(goldenSpec())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := New(sc, 1).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r8, err := New(sc, 8).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Digest != r8.Digest {
		t.Fatalf("workers=1 digest %s != workers=8 digest %s", r1.Digest, r8.Digest)
	}
	if r1.Digest != goldenDigest {
		t.Errorf("digest %s != pinned %s", r1.Digest, goldenDigest)
	}
	// The scenario must exercise every mechanism, or the digest pins less
	// than it claims.
	if r1.Breaks() == 0 {
		t.Error("golden scenario produced no link breaks")
	}
	if r1.Handoffs == 0 {
		t.Error("golden scenario produced no handoffs")
	}
	t.Logf("events=%d breaks=%d handoffs=%d bytes=%g", r1.Events, r1.Breaks(), r1.Handoffs, r1.Bytes())
}

// libraGoldenDigest pins goldenSpec under the LiBRA policy, with the
// classifier cmd/libra-sim trains for -seed 1: the engine pin whose stations
// featurize and classify at breaks, under interference and impairment
// offsets. CI's sim-smoke runs the same scenario with -policy libra and greps
// for this digest. The run digest records outcomes only, so
// libraFeatureSum pins the feature vectors the classifier is shown.
const (
	libraGoldenDigest = "8496475ae259c295496ca043266a8e981472ef38170420745be435e123fdbdca"
	libraFeatureSum   = 0x181a069cc45ef535
)

// verdictLog counts the classifier's verdicts and folds each feature vector
// it is shown into a sum of FNV-1a hashes, which no worker order changes.
type verdictLog struct {
	core.Classifier
	n, sum atomic.Uint64
}

func (v *verdictLog) Classify(f []float64) dataset.Action {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range f {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	v.n.Add(1)
	v.sum.Add(h.Sum64())
	return v.Classifier.Classify(f)
}

func TestGoldenDigestLiBRA(t *testing.T) {
	clf, err := core.TrainDefaultClassifier(dataset.GenerateMain(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	log := &verdictLog{Classifier: clf}
	spec := goldenSpec()
	spec.Policy = sim.LiBRA
	spec.Classifier = log
	sc, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	var digests [2]string
	var verdicts, sums [2]uint64
	for i, workers := range []int{1, 8} {
		log.n.Store(0)
		log.sum.Store(0)
		res, err := New(sc, workers).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		digests[i], verdicts[i], sums[i] = res.Digest, log.n.Load(), log.sum.Load()
		t.Logf("workers=%d events=%d breaks=%d handoffs=%d verdicts=%d feature sum %#x",
			workers, res.Events, res.Breaks(), res.Handoffs, verdicts[i], sums[i])
	}
	if digests[0] != digests[1] || verdicts[0] != verdicts[1] || sums[0] != sums[1] {
		t.Fatalf("workers=1 and workers=8 differ: digests %s, %s; verdicts %d, %d; feature sums %#x, %#x",
			digests[0], digests[1], verdicts[0], verdicts[1], sums[0], sums[1])
	}
	if verdicts[0] == 0 {
		t.Error("no station consulted the classifier")
	}
	if digests[0] != libraGoldenDigest {
		t.Errorf("digest %s != pinned %s", digests[0], libraGoldenDigest)
	}
	if sums[0] != libraFeatureSum {
		t.Errorf("feature sum %#x != pinned %#x", sums[0], uint64(libraFeatureSum))
	}
}
