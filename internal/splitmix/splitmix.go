// Package splitmix is the repository's one SplitMix64 (Steele, Lea and
// Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014): a
// 64-bit state advanced by a fixed odd increment, and a bijective finalizer
// that scrambles it. Campaign seeds, codebook perturbation, engine RNG
// streams, audit sampling and shard routing all derive from these two
// functions, so their outputs are frozen by the golden digests of those
// layers.
package splitmix

// Gamma is the state increment: 2^64 divided by the golden ratio, rounded to
// odd.
const Gamma = 0x9e3779b97f4a7c15

// Next advances *state by Gamma and returns the finalized new state: one
// step of the SplitMix64 generator.
//
//lint:noalloc pure integer math on the decide hot path
func Next(state *uint64) uint64 {
	*state += Gamma
	return Mix(*state)
}

// Mix is the SplitMix64 finalizer: a cheap bijective scrambler of all 64
// bits.
//
//lint:noalloc pure integer math on the decide hot path
func Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
