// Package stats provides the deterministic random-number generation and
// descriptive statistics that every other package in this repository builds
// on: seeded generators, Gaussian sampling, empirical CDFs, median filters,
// moving windows and simple trend tests.
//
// All randomness in the simulator flows through RNG so that every experiment
// is reproducible from a single 64-bit seed.
package stats

import (
	"math"

	"mobiwlan/internal/fastmath"
)

// RNG is a small, fast, deterministic pseudo-random generator based on
// SplitMix64 for stream splitting and xoshiro256**-style output mixing.
// It is NOT cryptographically secure; it exists to make simulations
// reproducible across runs and platforms.
//
// The zero value is a valid generator seeded with 0.
type RNG struct {
	state uint64
	// spare caches the second Gaussian variate from the Box-Muller
	// transform between calls to NormFloat64.
	spare    float64
	hasSpare bool
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives an independent child generator from r. The child stream is a
// deterministic function of r's current state and the supplied label, so two
// Splits with different labels never collide. Splitting does not advance r.
func (r *RNG) Split(label uint64) *RNG {
	// Mix the label in with two rounds of SplitMix64 finalization.
	x := r.state + 0x9e3779b97f4a7c15*(label+1)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return &RNG{state: x}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform variate in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform variate in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform variate in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// NormFloat64 returns a standard Gaussian variate (mean 0, stddev 1) using
// the Box-Muller transform.
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	u, v := r.boxMullerUniforms()
	z, spare := fastmath.NormPair(u, v)
	r.spare = spare
	r.hasSpare = true
	return z
}

// boxMullerUniforms draws one Box-Muller input pair: u rejects exact
// zeros (Log(0) is -Inf), then v.
func (r *RNG) boxMullerUniforms() (u, v float64) {
	for {
		u = r.Float64()
		if u > 0 {
			break
		}
	}
	return u, r.Float64()
}

// Gaussian returns a Gaussian variate with the given mean and stddev.
func (r *RNG) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// normChunk is NormFill's batch size in Box-Muller pairs: big enough to
// keep the four-lane kernel busy, small enough that the uniform and
// output buffers (2 KiB) live on the stack.
const normChunk = 64

// NormFill sets every dst[i] to a Gaussian variate with the given mean
// and stddev, consuming the stream exactly as len(dst) successive
// Gaussian calls would: an incoming spare variate fills dst[0], pairs are
// drawn u then v with the same zero rejection, each pair fills two
// consecutive entries (cosine variate first), and an odd tail leaves the
// last pair's sine variate as the spare for the next call. Only the
// transform is batched (fastmath.NormPairs, bit-identical to NormPair),
// so the values are Gaussian's bit for bit.
func (r *RNG) NormFill(dst []float64, mean, stddev float64) {
	if r.hasSpare && len(dst) > 0 {
		r.hasSpare = false
		dst[0] = mean + stddev*r.spare
		dst = dst[1:]
	}
	var u, v, zc, zs [normChunk]float64
	for len(dst) > 0 {
		pairs := min((len(dst)+1)/2, normChunk)
		for k := 0; k < pairs; k++ {
			u[k], v[k] = r.boxMullerUniforms()
		}
		fastmath.NormPairs(u[:pairs], v[:pairs], zc[:pairs], zs[:pairs])
		full := pairs
		if 2*pairs > len(dst) {
			// Odd tail: the last pair's cosine variate is the final
			// entry and its sine variate stays behind as the spare.
			full--
			dst[2*full] = mean + stddev*zc[full]
			r.spare = zs[full]
			r.hasSpare = true
		}
		for k := 0; k < full; k++ {
			dst[2*k] = mean + stddev*zc[k]
			dst[2*k+1] = mean + stddev*zs[k]
		}
		dst = dst[min(2*pairs, len(dst)):]
	}
}

// Exp returns an exponential variate with the given mean. It panics if
// mean <= 0.
func (r *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("stats: Exp called with non-positive mean")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Shuffle pseudo-randomly permutes the first n elements using swap, in the
// manner of math/rand.Shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
