// Package fastmath provides bit-exact transcriptions of Go math
// functions for simulation hot paths: a branchless Sincos (this file),
// Log/Exp in interleavable Go (logexp.go), and four-lane AVX2 Sincos and
// Box-Muller kernels (lanes.go). Each is gated by an init-time probe
// against the library and falls back to it where the probe fails.
//
// The library's portable Sin, Cos and Sincos share one algorithm: octant
// reduction j = x/(Pi/4), extended-precision Cody-Waite argument
// reduction, the same two polynomials, and an octant-dependent ladder of
// swaps and sign flips. Sin(x), Cos(x) and Sincos(x) therefore agree
// bit-for-bit with each other by construction — Sincos's outputs ARE
// Sin's and Cos's. What makes them slow in tight loops is the ladder:
// its branches depend on the octant, so for effectively random angles
// (path lengths in the channel kernel, uniform Box-Muller angles in the
// RNG) they mispredict constantly, and the mispredicts also stop the CPU
// from overlapping consecutive calls.
//
// Sincos here computes the identical values with straight-line code: the
// sign flips become sign-bit XORs (IEEE negation is exactly a sign-bit
// flip, so -v and bits(v)^(1<<63) are the same value for every float64)
// and the sin/cos swap becomes an XOR exchange (a bit-level move that
// does not touch either value). Every arithmetic operation on the way to
// those selections — the octant conversion, the reduction, both
// polynomials — is copied operation-for-operation from math/sincos.go,
// with the unexported _sin and _cos coefficient tables duplicated from
// math/sin.go.
//
// Bit-identity is empirical, not assumed: SincosExact is established at
// init by probing Sincos against math.Sincos, math.Sin and math.Cos over
// octant boundaries, magnitude sweeps, specials and denormals. If a
// future math package changes the portable algorithm, the probe fails
// and callers fall back to the library, which matches by definition.
// Arguments at or beyond the library's trigReduce threshold are
// delegated to math.Sincos inside Sincos, so the function is total.
package fastmath

import "math"

// Constants and coefficients from math/sincos.go and math/sin.go, parsed
// from the same decimal literals.
const (
	pi4A = 7.85398125648498535156e-1 // Pi/4 split into three parts
	pi4B = 3.77489470793079817668e-8
	pi4C = 2.69515142907905952645e-15

	// Above this magnitude the library switches to Payne-Hanek reduction
	// (trigReduce); Sincos delegates to math.Sincos there.
	reduceThreshold = 1 << 29
)

var sinCoef = [6]float64{
	1.58962301576546568060e-10,
	-2.50507477628578072866e-8,
	2.75573136213857245213e-6,
	-1.98412698295895385996e-4,
	8.33333333332211858878e-3,
	-1.66666666666666307295e-1,
}

var cosCoef = [6]float64{
	-1.13585365213876817300e-11,
	2.08757008419747316778e-9,
	-2.75573141792967388112e-7,
	2.48015872888517045348e-5,
	-1.38888888888730564116e-3,
	4.16666666666665929218e-2,
}

// Sincos returns math.Sincos(x) — equivalently (math.Sin(x),
// math.Cos(x)) — computed without data-dependent branches for |x| below
// the reduction threshold. Callers on hot paths must check SincosExact
// first.
//
//mobilint:hotpath
func Sincos(x float64) (sin, cos float64) {
	xb := math.Float64bits(x)
	ax := math.Float64frombits(xb &^ (1 << 63))
	if !(ax < reduceThreshold) {
		// Huge, infinite or NaN argument: the library's trigReduce /
		// special-case territory. (A NaN fails the comparison too.)
		return math.Sincos(x)
	}
	negBit := xb >> 63

	// Octant of |x|: integer part of |x|/(Pi/4), odd octants mapped up so
	// the reduction is centred. float64(j)+1 is exact here (j < 2^30), so
	// folding the increment before the conversion reproduces the
	// library's y++ bit-for-bit.
	j := uint64(ax * (4 / math.Pi))
	j += j & 1
	y := float64(j)
	j &= 7

	// Extended-precision modular arithmetic, verbatim.
	z := ((ax - y*pi4A) - y*pi4B) - y*pi4C
	zz := z * z
	cosv := 1.0 - 0.5*zz + zz*zz*((((((cosCoef[0]*zz)+cosCoef[1])*zz+cosCoef[2])*zz+cosCoef[3])*zz+cosCoef[4])*zz+cosCoef[5])
	sinv := z + z*zz*((((((sinCoef[0]*zz)+sinCoef[1])*zz+sinCoef[2])*zz+sinCoef[3])*zz+sinCoef[4])*zz+sinCoef[5])

	// Octant selection, branch-free. With jm = j mod 4 and refl = j/4,
	// the library's ladder reduces to: swap sin/cos when jm is 1 or 2,
	// negate sin when refl XOR signbit(x), negate cos when refl XOR
	// (jm > 1). The swap is an XOR exchange and the negations are
	// sign-bit XORs; neither touches a value's bits beyond moving or
	// sign-flipping it, so the outputs match the branchy original
	// exactly.
	jm := j & 3
	swap := (jm + 1) >> 1 & 1
	refl := j >> 2
	sinNeg := (refl ^ negBit) & 1
	cosNeg := (refl ^ jm>>1) & 1

	sb := math.Float64bits(sinv)
	cb := math.Float64bits(cosv)
	d := (sb ^ cb) & (0 - swap)
	sin = math.Float64frombits(sb ^ d ^ sinNeg<<63)
	cos = math.Float64frombits(cb ^ d ^ cosNeg<<63)
	return
}

// SincosExact gates the branchless Sincos: true only when it reproduces
// this platform's math.Sincos, math.Sin and math.Cos bit-for-bit across
// a probe sweep of octant boundaries, magnitudes spanning the
// simulator's angle domains, specials and denormals.
var SincosExact = func() bool {
	for _, p := range sincosProbes() {
		s, c := Sincos(p)
		ws, wc := math.Sincos(p)
		// Sin/Cos must agree with Sincos on this platform for the RNG's
		// separate calls to be substitutable.
		if !sameBits(s, ws) || !sameBits(c, wc) || !sameBits(math.Sin(p), ws) || !sameBits(math.Cos(p), wc) {
			return false
		}
	}
	return true
}()

// sincosProbes is the probe set behind SincosExact and LanesExact:
// specials, denormals, the reduction threshold, octant boundaries with
// nudges, a magnitude sweep from denormal territory past the threshold,
// and dense sweeps over both hot-path angle domains.
func sincosProbes() []float64 {
	probes := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -5e-324, 1e-310, -1e-310,
		float64(reduceThreshold), -float64(reduceThreshold),
	}
	// Octant boundaries: multiples of Pi/4 with one-ulp-scale nudges.
	for k := 0; k <= 64; k++ {
		b := float64(k) * (math.Pi / 4)
		probes = append(probes, b, -b, b+1e-9, -(b + 1e-9), b-1e-9, -(b - 1e-9))
	}
	// Magnitude sweep from denormal territory past the reduction
	// threshold (channel angles land around 1e2..1e5, RNG angles in
	// [0, 2*Pi)).
	x := 1e-15
	for i := 0; i < 250; i++ {
		probes = append(probes, x, -x)
		x *= 1.35
	}
	// Dense sweeps over both hot-path domains.
	for i := 0; i < 2000; i++ {
		probes = append(probes, -5e4+float64(i)*53.77)
	}
	for i := 0; i < 1000; i++ {
		probes = append(probes, float64(i)*(2*math.Pi/1000))
	}
	return probes
}

// sameBits reports whether a and b are the same float64, bit for bit,
// counting any two NaNs as equal (payloads are not part of the contract).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}
