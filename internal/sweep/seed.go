package sweep

// Deterministic seed derivation. Every unit of work — one graph build, one
// (size, trial) execution — gets its own 64-bit seed computed purely from
// the sweep seed and the work's coordinates, never from which worker or in
// which order the work happens to run. This is the whole determinism story:
// the shard layout can change with the worker count, the per-unit
// randomness cannot.

// splitmix64 is the finaliser of the SplitMix64 generator — a cheap,
// well-mixed 64-bit permutation (Steele, Lea & Flood, OOPSLA 2014).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive mixes the sweep seed with two work coordinates into an rng seed.
func derive(seed int64, a, b uint64) int64 {
	x := splitmix64(uint64(seed))
	x = splitmix64(x ^ (a+1)*0x9e3779b97f4a7c15)
	x = splitmix64(x ^ (b+1)*0xd1b54a32d192ed03)
	return int64(x)
}

// graphSeed seeds the generator handed to Spec.Graph for size index i.
func graphSeed(seed int64, sizeIdx int) int64 {
	return derive(seed, uint64(sizeIdx), 0)
}

// TrialSeed seeds the generator handed to Spec.Assign (and the default
// identifier draw) for one trial: rand.New(rand.NewSource(TrialSeed(...)))
// replays the stream that trial sees.
func TrialSeed(seed int64, sizeIdx, trial int) int64 {
	return derive(seed, uint64(sizeIdx), uint64(trial)+1)
}
