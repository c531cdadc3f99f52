package dataset

import (
	"context"
	"fmt"

	"github.com/libra-wlan/libra/internal/ml"
	"github.com/libra-wlan/libra/internal/obs"
	"github.com/libra-wlan/libra/internal/splitmix"
)

// The measurement campaigns of §4-§5 are embarrassingly parallel at the
// granularity of one displacement spec (a site with its rotation, blockage
// and interference sub-campaigns): specs share no link state, and every
// random draw a spec consumes comes from its own SplitMix64-derived stream.
// generate therefore fans the specs out over a bounded worker pool and
// merges the per-spec results in spec order, producing output identical to
// a single-worker run regardless of scheduling.

// specPositions returns the number of position IDs one spec allocates within
// its environment: the initial pose plus one per move for displacement, then
// one blockage and one interference position per block index. It must mirror
// the allocation pattern of generator.run exactly — the deterministic
// sharding of position IDs across workers depends on it.
func specPositions(s *displacementSpec) int {
	n := 1 + len(s.moves)
	if len(s.blockIdx) > 0 {
		n += 2 * len(s.blockIdx)
	}
	return n
}

// campaignDef is one campaign's design: the specs it runs, its building and
// dataset names, the Tx array seed of each spec, and the displacement,
// blockage and interference entry counts it must reproduce (Tables 1-2).
type campaignDef struct {
	building, name string
	specs          func() []*displacementSpec
	txSeed         func(seed int64, spec int) int64
	counts         [3]int
}

// generate runs the campaign's specs on ml.FanOut's pool of at most workers
// goroutines (<= 0 selects GOMAXPROCS) and merges the per-spec
// sub-campaigns in spec order. The output is byte-identical for every worker
// count: per-spec RNG streams and position-ID bases are derived up front,
// independent of scheduling.
//
// Cancellation is cooperative at spec boundaries: a canceled ctx stops new
// specs from being dispatched, lets in-flight specs finish, and returns
// ctx's error with no campaign. Specs are the sharding unit of the engine,
// so cancellation latency is one spec's generation time. A run that
// completes is unaffected by ctx: the campaign bytes only depend on the
// seed.
func (d *campaignDef) generate(ctx context.Context, seed int64, workers int) (*Campaign, error) {
	specs := d.specs()
	rngSeeds := make([]int64, len(specs))
	posBase := make([]int, len(specs))
	envNames := make([]string, len(specs))
	state := uint64(seed)
	nextPos := map[string]int{}
	for i, sp := range specs {
		rngSeeds[i] = int64(splitmix.Next(&state))
		envNames[i] = sp.envFn().Name
		posBase[i] = nextPos[envNames[i]]
		nextPos[envNames[i]] += specPositions(sp)
	}

	// Each spec gets its own trace stream keyed by (campaign, spec index):
	// streams are single-writer and merged in key order at export, so the
	// trace bytes do not depend on which worker ran which spec.
	tr := obs.ActiveTracer()
	subs := make([]*generator, len(specs))
	runOne := func(i int) {
		obsCampWorkers.Inc()
		g := newGenerator(rngSeeds[i], d.building)
		g.trace = tr.Stream("campaign/"+d.name, uint64(i))
		g.posSeq[envNames[i]] = posBase[i]
		g.run(specs[i], d.txSeed(seed, i))
		subs[i] = g
		obsCampSpecs.Inc()
		obsCampWorkers.Dec()
	}
	if err := ml.FanOut(ctx, workers, len(specs), runOne); err != nil {
		return nil, err
	}

	// Per-spec entries concatenate in spec order into one slab, so the
	// campaign is identical for any worker count.
	n := 0
	for _, g := range subs {
		n += len(g.entries)
	}
	slab := make([]Entry, 0, n)
	camp := &Campaign{Dataset: Dataset{Name: d.name, Entries: make([]*Entry, n)}}
	for _, g := range subs {
		slab = append(slab, g.entries...)
		camp.Sites = append(camp.Sites, g.sites...)
	}
	for i := range slab {
		camp.Entries[i] = &slab[i]
	}

	// The counts are part of the reproduction target: a campaign that
	// drifts from its design is a bug, not an input error.
	got := [3]int{len(camp.Filter(Displacement)), len(camp.Filter(Blockage)), len(camp.Filter(Interference))}
	if got != d.counts {
		panic(fmt.Sprintf("dataset: %s campaign produced %d/%d/%d entries, want %d/%d/%d",
			d.name, got[0], got[1], got[2], d.counts[0], d.counts[1], d.counts[2]))
	}
	return camp, nil
}

// mustGenerate runs generate on a context that is never canceled, so it
// cannot fail.
func (d *campaignDef) mustGenerate(seed int64, workers int) *Campaign {
	camp, err := d.generate(context.Background(), seed, workers)
	if err != nil {
		panic(err)
	}
	return camp
}
