package serve

import (
	"fmt"
	"hash/fnv"
	"sort"

	"github.com/libra-wlan/libra/internal/splitmix"
)

// Consistent-hash ring for shard routing. Links are sticky: the same link
// ID always lands on the same shard (so per-link serving state — warm
// caches, per-link metrics — stays put), and adding or removing a shard
// moves only ~1/N of the keys instead of reshuffling everything. Each
// shard owns many virtual points on the ring to even out the split.
//
// Everything here is deterministic — pure hashing, no clocks, no
// randomness — so a given (shards, linkID) pair routes identically on
// every host and in every test run. ring*.go sits inside the determinism
// analyzer's banned set, like replay*.go and wire*.go.

// ringVNodes is the virtual points per shard. Audit records carry the
// shard, so changing it would move every audit digest.
const ringVNodes = 64

// ringPoint is one virtual node: a position on the 64-bit ring owned by a
// shard.
type ringPoint struct {
	hash  uint64
	shard int32
}

// hashRing maps 64-bit keys to shards.
type hashRing struct {
	points []ringPoint // sorted by hash
	shards int
}

// newRing builds a ring of shards × ringVNodes virtual points. Point
// positions hash the stable string "shard/<i>/vnode/<j>" with FNV-1a, so
// ring layout depends only on the shard count.
func newRing(shards int) *hashRing {
	if shards < 1 {
		shards = 1
	}
	r := &hashRing{points: make([]ringPoint, 0, shards*ringVNodes), shards: shards}
	for s := 0; s < shards; s++ {
		for v := 0; v < ringVNodes; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "shard/%d/vnode/%d", s, v)
			r.points = append(r.points, ringPoint{hash: h.Sum64(), shard: int32(s)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.shard < b.shard
	})
	return r
}

// shardFor returns the shard owning linkID: the first ring point at or
// after the key's scrambled position, wrapping at the top.
func (r *hashRing) shardFor(linkID uint64) int {
	if r.shards == 1 {
		return 0
	}
	h := splitmix.Mix(linkID) // spreads sequential link IDs uniformly over the ring
	pts := r.points
	i := sort.Search(len(pts), func(i int) bool { return pts[i].hash >= h })
	if i == len(pts) {
		i = 0
	}
	return int(pts[i].shard)
}
