package ids

// StreamPerm is a seeded random permutation of [0, n) evaluable point-wise
// in O(1) with zero storage: a 4-round Feistel network over the smallest
// even-bit-width domain 2^(2h) >= n, restricted to [0, n) by cycle-walking
// (re-encrypting any out-of-range image until it lands back in range — a
// standard format-preserving-encryption construction, and a bijection on
// [0, n) because the Feistel network is a bijection on the full domain).
//
// The permutation is NOT the one rand.Perm/RandomInto produces for the
// same seed — it is its own seeded family, deterministic across processes.
// The lease loop orders an executor's grains with it.
type StreamPerm struct {
	n        int
	halfBits uint
	halfMask uint64
	keys     [4]uint64
}

// NewStreamPerm returns the seeded permutation of [0, n). n must be
// non-negative; the zero-size permutation has no valid inputs.
func NewStreamPerm(n int, seed uint64) StreamPerm {
	p := StreamPerm{n: n, halfBits: 1}
	for uint64(1)<<(2*p.halfBits) < uint64(n) {
		p.halfBits++
	}
	p.halfMask = uint64(1)<<p.halfBits - 1
	// Round keys from the seed via the splitmix64 sequence: full-period in
	// the seed, well mixed, and cheap enough to rebuild per trial.
	s := seed
	for i := range p.keys {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		p.keys[i] = z ^ (z >> 31)
	}
	return p
}

// N reports the permutation's domain size.
func (p StreamPerm) N() int { return p.n }

// ID returns the identifier of vertex v — the image of v under the
// permutation. v must be in [0, N()).
func (p StreamPerm) ID(v int) int {
	x := uint64(v)
	for {
		x = p.encrypt(x)
		if x < uint64(p.n) {
			return int(x)
		}
	}
}

// encrypt runs the 4-round Feistel network over the 2*halfBits-bit domain.
func (p StreamPerm) encrypt(x uint64) uint64 {
	l, r := x>>p.halfBits, x&p.halfMask
	for _, k := range p.keys {
		l, r = r, l^(mix64(r+k)&p.halfMask)
	}
	return l<<p.halfBits | r
}

// mix64 is the splitmix64 finalizer, used as the Feistel round function.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
