// Package dataset mirrors the libra-ds streaming chunk writer so the
// determinism tests pin what the analyzer must (and must not) flag in the
// encode pipeline: sharded workers with a strict in-order commit are clean,
// while wall-clock frame stamps, scheduling-dependent chunk order, and
// unsorted column-map walks are exactly the bugs that would break the
// byte-identical-for-any-worker-count contract.
package dataset

import (
	"math/rand"
	"sort"
	"time"
)

// chunk is one encoded column block awaiting its in-order commit.
type chunk struct {
	index int
	data  []byte
}

// --- negatives -----------------------------------------------------------

// encodeSharded is the sanctioned shape of a parallel encode: workers encode
// concurrently, the consumer commits strictly by submission index, so the
// output bytes cannot depend on goroutine scheduling. Nothing here is
// flagged — concurrency is fine when the merge order is pinned.
func encodeSharded(rows, chunkRows int, encode func(lo, hi int) []byte) [][]byte {
	n := (rows + chunkRows - 1) / chunkRows
	results := make([]chan chunk, n)
	for i := range results {
		results[i] = make(chan chunk, 1)
	}
	for i := 0; i < n; i++ {
		go func(i int) {
			lo := i * chunkRows
			hi := lo + chunkRows
			if hi > rows {
				hi = rows
			}
			results[i] <- chunk{index: i, data: encode(lo, hi)}
		}(i)
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, (<-results[i]).data)
	}
	return out
}

// footerNames walks the column dictionary in sorted order before writing it
// into the footer: collect-then-sort launders map order back out.
func footerNames(dict map[string]uint16) []string {
	names := make([]string, 0, len(dict))
	for name := range dict {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// rowTotal counts rows across chunks with integer accumulation, which
// commutes exactly and is therefore order-independent.
func rowTotal(rowsPerChunk map[int]int) int {
	total := 0
	for _, n := range rowsPerChunk {
		total += n
	}
	return total
}

// seededJitter draws from a generator plumbed in by the caller — the
// sanctioned randomness source for synthetic campaign noise.
func seededJitter(rng *rand.Rand, sigma float64) float64 {
	return rng.NormFloat64() * sigma
}

// --- positives -----------------------------------------------------------

// stampFrame writes a creation timestamp into the chunk frame, making the
// container bytes differ between two runs over identical campaigns.
func stampFrame(frame []byte) {
	t := time.Now() // want `time\.Now makes output wall-clock-dependent`
	_ = t.UnixNano()
}

// shuffledOrder randomizes chunk commit order from the process-global
// source — both the nondeterministic order and the global draw are flagged.
func shuffledOrder(chunks []chunk) {
	rand.Shuffle(len(chunks), func(i, j int) { // want `rand\.Shuffle draws from the process-global source`
		chunks[i], chunks[j] = chunks[j], chunks[i]
	})
}

// footerNamesUnsorted writes the dictionary in map order: the footer bytes
// would vary run to run.
func footerNamesUnsorted(dict map[string]uint16) []string {
	var names []string
	for name := range dict {
		names = append(names, name) // want `append to names inside range over a map`
	}
	return names
}

// columnChecksum folds float column sums in map order: float addition does
// not commute bit-exactly, so the digest depends on iteration order.
func columnChecksum(sums map[string]float64) float64 {
	var digest float64
	for _, s := range sums {
		digest += s // want `float accumulation into digest inside range over a map`
	}
	return digest
}
