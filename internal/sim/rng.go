// Package sim provides the deterministic foundations of the cycle-level
// simulator: a seedable pseudo-random number generator and small helpers
// shared by all simulation components.
//
// Every source of randomness in the simulator flows from an RNG seeded from
// the experiment configuration, so that identical configurations reproduce
// identical cycle-by-cycle behaviour. This determinism is load-bearing: the
// test suite asserts exact packet counts and latencies for fixed seeds, and
// the benchmark harness relies on run-to-run stability to compare policies.
package sim

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random number generator
// (xoshiro256** seeded via splitmix64). It is not safe for concurrent use;
// each simulated component that needs randomness owns its own RNG, derived
// from the experiment seed with Split.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed. Any seed, including zero, is
// valid: the state is expanded through splitmix64, which never yields the
// all-zero state xoshiro cannot escape.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed resets the generator to the state derived from seed.
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// Split derives an independent generator from this one. The child's stream
// is decorrelated from the parent's by reseeding through splitmix64.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// SplitN derives the i-th of a family of independent generators without
// advancing the parent more than once per call. It is used to give each of
// the 256 cores (or 64 nodes) its own stream from one experiment seed.
func (r *RNG) SplitN(i int) *RNG {
	c := &RNG{}
	r.SplitNInto(i, c)
	return c
}

// SplitNInto reseeds dst in place to the stream SplitN(i) would return,
// advancing r exactly as SplitN does. Callers that keep a family of
// generators by value use it to avoid one heap RNG per member.
func (r *RNG) SplitNInto(i int, dst *RNG) {
	dst.Reseed(r.Uint64() + uint64(i)*0x9e3779b97f4a7c15)
}

// Uint64 returns the next 64 pseudo-random bits. The state words are
// worked in locals so the body stays under the compiler's inlining budget:
// per-draw callers (the traffic generator) pay no call.
func (r *RNG) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	result := bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	r.s = [4]uint64{s0, s1, s2, bits.RotateLeft64(s3, 45)}
	return result
}

// Intn returns a uniformly distributed int in [0, n). n must be > 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method.
	v := r.Uint64()
	hi, lo := mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := -uint64(n) % uint64(n)
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// BernoulliThreshold returns the integer cutoff t with
// r.Uint64()>>11 < t exactly when r.Float64() < p, for p in (0, 1]: the
// 53-bit draw u satisfies u/2^53 < p iff u < p·2^53 iff u < ceil(p·2^53),
// and every step is exact in float64 (scaling by a power of two, ceil of
// a value at most 2^53). A caller drawing many coins with one p computes
// it once and compares integers per draw.
func BernoulliThreshold(p float64) uint64 {
	return uint64(math.Ceil(p * (1 << 53)))
}

// Bernoulli reports true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Geometric returns a sample from the geometric distribution with success
// probability p: the number of failures before the first success. It is the
// discrete analogue of an exponential inter-arrival time and is used for
// compute-burst lengths in the core model. For p <= 0 it returns a large
// sentinel; for p >= 1 it returns 0.
func (r *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return 1 << 30
	}
	// Inversion method; ln(u)/ln(1-p) truncated.
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	n := int(math.Log(u) / math.Log(1-p))
	if n < 0 {
		n = 0
	}
	return n
}

// Perm fills dst with a pseudo-random permutation of [0, len(dst)).
func (r *RNG) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return
}
