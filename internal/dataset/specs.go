package dataset

import (
	"context"

	"github.com/libra-wlan/libra/internal/env"
	"github.com/libra-wlan/libra/internal/geom"
)

// facing returns the orientation (degrees) for an Rx at p looking toward t.
func facing(p, t geom.Vec) float64 {
	return geom.Deg(t.Sub(p).Angle())
}

// posesFacing builds poses at the given points, all oriented toward tx.
func posesFacing(tx geom.Vec, pts ...geom.Vec) []pose {
	out := make([]pose, len(pts))
	for i, p := range pts {
		out[i] = pose{pos: p, orient: facing(p, tx)}
	}
	return out
}

// mainSpecs returns the campaign specs for the main/training dataset,
// designed so that entry and position counts reproduce Table 1 exactly:
// displacement 479 entries / 94 positions (lobby 22, lab 13, conference 10,
// corridors 49), blockage 81 / 12, interference 108 / 12.
func mainSpecs() []*displacementSpec {
	var specs []*displacementSpec

	// ---- Lobby, Tx set A (backward / lateral / diagonal motion, §A.2.2).
	txA := geom.V(2, 4)
	movesA := posesFacing(txA,
		// backward
		geom.V(5.5, 4), geom.V(7.5, 4), geom.V(9.5, 4), geom.V(11.5, 4), geom.V(13.5, 4),
		// lateral (orientation preserved from the initial pose)
		geom.V(3.5, 5.5), geom.V(3.5, 7), geom.V(3.5, 2.5), geom.V(3.5, 1.5),
		// diagonal
		geom.V(6, 2.5), geom.V(8, 2), geom.V(5.5, 7), geom.V(7.5, 7.5),
	)
	// Lateral motion keeps the initial orientation (the Rx slides sideways
	// while still facing the old Tx direction).
	initOrientA := facing(geom.V(3.5, 4), txA)
	for i := 5; i <= 8; i++ {
		movesA[i].orient = initOrientA
	}
	specs = append(specs, &displacementSpec{
		envFn:    env.Lobby,
		txPos:    txA,
		txOrient: 0,
		initial:  pose{pos: geom.V(3.5, 4), orient: initOrientA},
		moves:    movesA,
		rotIdx:   []int{1, 3, 6, 12},
		blockIdx: []int{1, 3, 10},
		trials:   []int{7, 7, 7},
	})

	// ---- Lobby, Tx set B.
	txB := geom.V(17, 10)
	specs = append(specs, &displacementSpec{
		envFn:    env.Lobby,
		txPos:    txB,
		txOrient: 225,
		initial:  pose{pos: geom.V(15, 8), orient: facing(geom.V(15, 8), txB)},
		moves: posesFacing(txB,
			geom.V(13, 7), geom.V(11, 4), geom.V(9, 3), geom.V(14, 9),
			geom.V(12, 8), geom.V(10, 7), geom.V(8, 8),
		),
		rotIdx:   []int{1, 4},
		blockIdx: []int{0},
		trials:   []int{7},
	})

	// ---- Lab.
	labTx := geom.V(5.9, 8.8)
	specs = append(specs, &displacementSpec{
		envFn:    env.Lab,
		txPos:    labTx,
		txOrient: -90,
		initial:  pose{pos: geom.V(5.9, 6.3), orient: 90},
		moves: posesFacing(labTx,
			geom.V(5.9, 4.5), geom.V(5.9, 2.7), geom.V(5.9, 0.9),
			geom.V(3.5, 6.3), geom.V(8.3, 6.3), geom.V(3.5, 4.5),
			geom.V(8.3, 4.5), geom.V(2.5, 2.7), geom.V(9.3, 2.7),
			geom.V(3.5, 0.9), geom.V(8.3, 0.9), geom.V(10.5, 4.5),
		),
		rotIdx:   []int{0, 1, 2, 5, 6, 11},
		blockIdx: []int{1},
		trials:   []int{7},
	})

	// ---- Conference room. Positions behind the table communicate via
	// reflections; four of them face the same direction as the Tx (§A.2.2).
	confTx := geom.V(0.7, 3.4)
	confMoves := posesFacing(confTx,
		geom.V(4.5, 1.5), geom.V(6, 1.5), geom.V(7.8, 1.8),
		geom.V(8.5, 3.4), geom.V(7.8, 5), geom.V(6, 5.5),
		geom.V(4.5, 5.5), geom.V(3, 5.3), geom.V(9.5, 2),
	)
	for _, i := range []int{2, 3, 4, 8} {
		confMoves[i].orient = 0 // facing the same direction as the Tx
	}
	specs = append(specs, &displacementSpec{
		envFn:    env.ConferenceRoom,
		txPos:    confTx,
		txOrient: 0,
		initial:  pose{pos: geom.V(2.5, 3.4), orient: 180},
		moves:    confMoves,
		rotIdx:   []int{0, 1, 3, 5, 7},
		dropLast: 4,
		blockIdx: []int{0, 3},
		trials:   []int{7, 7},
	})

	// ---- Corridors: Tx at one end, Rx moving back in 1.25 m steps with
	// both ends always facing each other (§A.2.2).
	specs = append(specs, corridorSpec(env.NarrowCorridor, 1.74, 16, []int{2, 5, 8, 11, 14}, []int{3, 8}, []int{6, 6}))
	specs = append(specs, corridorSpec(func() *env.Environment { return env.Corridor(3.2, 25) }, 3.2, 15, []int{1, 4, 7, 10, 13}, []int{4}, []int{6}))
	specs = append(specs, corridorSpec(func() *env.Environment { return env.Corridor(6.2, 25) }, 6.2, 15, []int{1, 3, 5, 7, 10, 13}, []int{4, 9}, []int{7, 7}))

	return specs
}

// corridorSpec builds a corridor displacement spec with nMoves positions in
// 1.25 m steps starting 2.5 m from the Tx.
func corridorSpec(envFn func() *env.Environment, width float64, nMoves int, rotIdx, blockIdx []int, trials []int) *displacementSpec {
	y := width / 2
	tx := geom.V(0.5, y)
	moves := make([]pose, nMoves)
	for i := range moves {
		x := 3.0 + 1.25*float64(i+1)
		moves[i] = pose{pos: geom.V(x, y), orient: 180}
	}
	return &displacementSpec{
		envFn:    envFn,
		txPos:    tx,
		txOrient: 0,
		initial:  pose{pos: geom.V(3, y), orient: 180},
		moves:    moves,
		rotIdx:   rotIdx,
		blockIdx: blockIdx,
		trials:   trials,
	}
}

// testSpecs returns the specs for the transfer-testing dataset (Table 2):
// displacement 165 entries / 34 positions (Building 1: 23, Building 2: 11),
// blockage 27 / 4, interference 36 / 4.
func testSpecs() []*displacementSpec {
	var specs []*displacementSpec

	// ---- Building 1: long 2.5 m corridor, old absorptive walls.
	b1y := 1.25
	b1tx := geom.V(0.5, b1y)
	b1moves := make([]pose, 22)
	for i := range b1moves {
		x := 2.5 + 1.2*float64(i+1)
		b1moves[i] = pose{pos: geom.V(x, b1y), orient: 180}
	}
	specs = append(specs, &displacementSpec{
		envFn:    env.Building1,
		txPos:    b1tx,
		txOrient: 0,
		initial:  pose{pos: geom.V(2.5, b1y), orient: 180},
		moves:    b1moves,
		rotIdx:   []int{2, 5, 8, 11, 14, 17},
		blockIdx: []int{4, 9},
		trials:   []int{7, 7},
	})

	// ---- Building 2: wide open area.
	b2tx := geom.V(3, 9)
	specs = append(specs, &displacementSpec{
		envFn:    env.Building2,
		txPos:    b2tx,
		txOrient: 0,
		initial:  pose{pos: geom.V(5, 9), orient: 180},
		moves: posesFacing(b2tx,
			geom.V(8, 9), geom.V(12, 9), geom.V(16, 9), geom.V(22, 9),
			geom.V(7, 13), geom.V(12, 14), geom.V(7, 5), geom.V(12, 4),
			geom.V(18, 13), geom.V(18, 5),
		),
		rotIdx: []int{0, 1, 3, 5, 7},
		// A denser sweep at the first rotation position (one extra angle).
		extraAngles: map[int][]float64{0: {7.5}},
		blockIdx:    []int{1, 5},
		trials:      []int{7, 6},
	})

	return specs
}

// mainCampaign is the main/training campaign of Table 1.
var mainCampaign = campaignDef{
	building: "main",
	name:     "main",
	specs:    mainSpecs,
	txSeed:   func(seed int64, i int) int64 { return seed + int64(i+1)*1000 },
	counts:   [3]int{479, 81, 108},
}

// testCampaign is the transfer-testing campaign of Table 2.
var testCampaign = campaignDef{
	building: "test",
	name:     "testing",
	specs:    testSpecs,
	txSeed:   func(seed int64, i int) int64 { return seed + int64(i+7)*2000 },
	counts:   [3]int{165, 27, 36},
}

// GenerateMain produces the main/training dataset (Table 1): 668 labeled
// entries — 479 displacement, 81 blockage, 108 interference — plus one NA
// augmentation entry per new state for the 3-class model of §7. Sites run
// on a GOMAXPROCS-sized worker pool; the output is identical to a
// single-worker run (see GenerateMainWorkers).
func GenerateMain(seed int64) *Campaign {
	return GenerateMainWorkers(seed, 0)
}

// GenerateMainWorkers is GenerateMain with an explicit worker count
// (<= 0 selects runtime.GOMAXPROCS). Every worker count yields identical
// output; the knob exists for determinism tests and benchmarking.
func GenerateMainWorkers(seed int64, workers int) *Campaign {
	return mainCampaign.mustGenerate(seed, workers)
}

// GenerateMainContext is GenerateMain with cooperative cancellation at spec
// (shard) boundaries: a canceled ctx stops dispatching new specs, waits for
// in-flight ones, and returns ctx's error. A completed campaign is identical
// to GenerateMain's for the same seed.
func GenerateMainContext(ctx context.Context, seed int64) (*Campaign, error) {
	return mainCampaign.generate(ctx, seed, 0)
}

// GenerateTest produces the testing dataset (Table 2) collected in two
// different buildings: 228 labeled entries — 165 displacement, 27 blockage,
// 36 interference — plus NA augmentation.
func GenerateTest(seed int64) *Campaign {
	return GenerateTestWorkers(seed, 0)
}

// GenerateTestWorkers is GenerateTest with an explicit worker count (<= 0
// selects runtime.GOMAXPROCS); every worker count yields identical output.
func GenerateTestWorkers(seed int64, workers int) *Campaign {
	return testCampaign.mustGenerate(seed, workers)
}

// GenerateTestContext is GenerateTest with cooperative cancellation at spec
// (shard) boundaries; see GenerateMainContext.
func GenerateTestContext(ctx context.Context, seed int64) (*Campaign, error) {
	return testCampaign.generate(ctx, seed, 0)
}
