package dataset

import (
	"context"
	"runtime"
	"sync"

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

// generate executes the campaign specs on a bounded worker pool and merges
// the per-spec sub-campaigns in spec order. workers <= 0 selects
// runtime.GOMAXPROCS(0). The output is byte-identical for every worker
// count: per-spec RNG streams and position-ID bases are derived up front,
// independent of scheduling.
func generate(seed int64, building, name string, specs []*displacementSpec, txSeed func(int) int64, workers int) *Campaign {
	camp, err := generateCtx(context.Background(), seed, building, name, specs, txSeed, workers)
	if err != nil {
		// Unreachable: Background is never canceled.
		panic(err)
	}
	return camp
}

// generateCtx is generate with cooperative cancellation at spec boundaries:
// a canceled ctx stops new specs from being dispatched, lets in-flight specs
// finish, and returns ctx's error with no campaign. Specs are the sharding
// unit of the engine, so cancellation latency is one spec's generation time.
// A run that completes is unaffected by ctx: the campaign bytes only depend
// on the seed.
func generateCtx(ctx context.Context, seed int64, building, name string, specs []*displacementSpec, txSeed func(int) int64, workers int) (*Campaign, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}

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
		g := newGenerator(rngSeeds[i], building, name)
		g.trace = tr.Stream("campaign/"+name, uint64(i))
		g.posSeq[envNames[i]] = posBase[i]
		g.run(specs[i], txSeed(i))
		subs[i] = g
		obsCampSpecs.Inc()
		obsCampWorkers.Dec()
	}
	if workers <= 1 {
		for i := range specs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			runOne(i)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					runOne(i)
				}
			}()
		}
	dispatch:
		for i := range specs {
			select {
			case jobs <- i:
			case <-ctx.Done():
				break dispatch
			}
		}
		close(jobs)
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Per-spec column chunks concatenate in spec order into one campaign
	// store (identical for any worker count), the chunks return to the pool,
	// and the row view materializes from the columns in one slab.
	camp := &Campaign{Dataset: Dataset{Name: name}}
	cols := newColumnStore()
	for _, g := range subs {
		cols.appendStore(g.cols)
		camp.Sites = append(camp.Sites, g.camp.Sites...)
		g.cols.free()
	}
	camp.cols = cols
	camp.Entries = cols.materialize()
	return camp, nil
}
