package fastmath

import "math"

// Four-lane batch forms of Sincos, of the Box-Muller pair and of the
// breakpoint power x^0.75. On amd64 with AVX2 the work runs in
// lanes_amd64.s, four inputs per instruction; every lane performs
// exactly the scalar code's IEEE operations in the scalar code's order,
// fusing a multiply-add only where the library's own assembly does, so
// batching changes no bits (see the assembly's header). Any quad holding
// an input outside a kernel's domain, and the ragged tail of a slice,
// take the scalar code instead.

// LanesExact gates the AVX2 kernels behind SincosSlice, NormPairs and
// Pow075Slice: true only on an AVX2+FMA host where Sincos is itself
// exact and every kernel reproduces the library bit-for-bit on a probe
// sweep: SincosExact's probe set for the angle kernel; for the
// Box-Muller kernel a magnitude sweep of u from the smallest denormal
// past 1, Log's Sqrt2/2 switch points and 4096 of the RNG's 53-bit
// uniforms, against v over [0, 1) (math.Log, math.Sincos); for the power
// kernel a magnitude sweep over its whole domain, dense breakpoint
// ratios in (0, 1] and the points where Exp's rounded exponent steps
// (math.Pow(x, 0.75)). Where it is false, the wrappers run the scalar
// code throughout.
var LanesExact = HasAVX2 && hasFMA && SincosExact && lanesProbe()

// SincosSlice sets sin[i], cos[i] = math.Sincos(x[i]) for every i.
// sin and cos must be at least len(x) long.
func SincosSlice(x, sin, cos []float64) {
	n := len(x)
	sin, cos = sin[:n], cos[:n]
	i := 0
	if LanesExact {
		for n-i >= 4 {
			i += sincos4(&x[i], &sin[i], &cos[i], (n-i)&^3)
			if n-i >= 4 {
				// The kernel stopped at a quad with an out-of-domain lane.
				for end := i + 4; i < end; i++ {
					sin[i], cos[i] = Sincos(x[i])
				}
			}
		}
	}
	for ; i < n; i++ {
		if SincosExact {
			sin[i], cos[i] = Sincos(x[i])
		} else {
			sin[i], cos[i] = math.Sincos(x[i])
		}
	}
}

// NormPair is the Box-Muller transform of one uniform pair: it returns
// mag*cos and mag*sin of 2*Pi*v with mag = Sqrt(-2*Log(u)), the two
// standard normals RNG.NormFloat64 hands out (cosine first, sine as the
// spare).
func NormPair(u, v float64) (zc, zs float64) {
	mag := math.Sqrt(-2 * math.Log(u))
	if SincosExact {
		// One branchless reduction serves both variates; bit-identical
		// to the separate Sin and Cos calls below (the SincosExact probe
		// pins all three against each other), without the octant
		// mispredicts that random angles inflict on the library ladder.
		s, c := Sincos(2 * math.Pi * v)
		return mag * c, mag * s
	}
	return mag * math.Cos(2*math.Pi*v), mag * math.Sin(2*math.Pi*v)
}

// NormPairs sets zc[i], zs[i] = NormPair(u[i], v[i]) for every i. v, zc
// and zs must be at least len(u) long.
func NormPairs(u, v, zc, zs []float64) {
	n := len(u)
	v, zc, zs = v[:n], zc[:n], zs[:n]
	i := 0
	if LanesExact {
		for n-i >= 4 {
			i += normPairs4(&u[i], &v[i], &zc[i], &zs[i], (n-i)&^3)
			if n-i >= 4 {
				for end := i + 4; i < end; i++ {
					zc[i], zs[i] = NormPair(u[i], v[i])
				}
			}
		}
	}
	for ; i < n; i++ {
		zc[i], zs[i] = NormPair(u[i], v[i])
	}
}

// Pow075 is math.Pow(x, 0.75) for positive finite x, as the exact
// operation sequence math's portable pow takes for y = 0.75: Modf(0.75)
// yields (0, 0.75), the yf > 0.5 rebalance makes (yi, yf) = (1, -0.25),
// so the result is Exp(-0.25*Log(x)) times one squaring-loop step (a1*x1,
// ae+xe). Skipping Pow's special-case ladder and Modf saves real time
// without changing a bit wherever math.Pow is that portable code; callers
// confirm that with their own probe against math.Pow.
func Pow075(x float64) float64 {
	x1, xe := math.Frexp(x)
	a1 := math.Exp(-0.25 * math.Log(x))
	a1 *= x1
	return math.Ldexp(a1, xe)
}

// Pow075Slice sets y[i] = Pow075(x[i]) for every i. y must be at least
// len(x) long and may be x itself.
func Pow075Slice(x, y []float64) {
	n := len(x)
	y = y[:n]
	i := 0
	if LanesExact {
		for n-i >= 4 {
			i += pow0754(&x[i], &y[i], (n-i)&^3)
			if n-i >= 4 {
				for end := i + 4; i < end; i++ {
					y[i] = Pow075(x[i])
				}
			}
		}
	}
	for ; i < n; i++ {
		y[i] = Pow075(x[i])
	}
}

// lanesProbe runs every kernel directly (not through the wrappers, whose
// scalar escapes would mask a kernel bug) on in-domain probe quads and
// compares every lane against the library.
func lanesProbe() bool {
	var x []float64
	for _, p := range sincosProbes() {
		if math.Abs(p) < reduceThreshold {
			x = append(x, p)
		}
	}
	for len(x)%4 != 0 {
		x = append(x, 0)
	}
	sin := make([]float64, len(x))
	cos := make([]float64, len(x))
	if sincos4(&x[0], &sin[0], &cos[0], len(x)) != len(x) {
		return false
	}
	for i, p := range x {
		ws, wc := math.Sincos(p)
		if !sameBits(sin[i], ws) || !sameBits(cos[i], wc) {
			return false
		}
	}

	u := []float64{5e-324, 1e-310, 0x1p-1022, 0x1p-53, 1, math.Nextafter(1, 0), 1.5, math.MaxFloat64}
	for p := 1e-300; p < 4; p *= 1.07 {
		u = append(u, p, math.Nextafter(p, 0))
	}
	for k := 1; k <= 64; k++ {
		// Around Sqrt2/2 times a power of two, where Log's k/f1
		// adjustment switches.
		b := math.Ldexp(math.Sqrt2/2, -k)
		u = append(u, b, math.Nextafter(b, 0), math.Nextafter(b, 1))
	}
	// The RNG's own domain: 53-bit uniforms from a SplitMix64 sequence.
	state := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 4096; i++ {
		state += 0x9e3779b97f4a7c15
		z := (state ^ state>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		u = append(u, float64((z^z>>31)>>11)/(1<<53)+0x1p-53)
	}
	for len(u)%4 != 0 {
		u = append(u, 0.5)
	}
	v := make([]float64, len(u))
	for i := range v {
		v[i] = float64((i*7919)%len(u)) / float64(len(u))
	}
	zc := make([]float64, len(u))
	zs := make([]float64, len(u))
	if normPairs4(&u[0], &v[0], &zc[0], &zs[0], len(u)) != len(u) {
		return false
	}
	for i := range u {
		mag := math.Sqrt(-2 * math.Log(u[i]))
		ws, wc := math.Sincos(2 * math.Pi * v[i])
		if !sameBits(zc[i], mag*wc) || !sameBits(zs[i], mag*ws) {
			return false
		}
	}

	px := powProbes()
	py := make([]float64, len(px))
	if pow0754(&px[0], &py[0], len(px)) != len(px) {
		return false
	}
	for i, p := range px {
		if !sameBits(py[i], math.Pow(p, 0.75)) {
			return false
		}
	}
	return true
}

// powProbes is the power kernel's probe set, a whole number of quads in
// its domain [2^-1022, 2^1022): both ends and their neighbours, a
// magnitude sweep across the domain, dense breakpoint ratios in (0, 1]
// (bp/length for lengths past the breakpoint), and the inputs on either
// side of each point where Exp's rounded exponent k = round(LOG2E*t),
// t = -0.25*Log(x), steps to the next integer.
func powProbes() []float64 {
	x := []float64{
		0x1p-1022, math.Nextafter(0x1p-1022, 1), math.Nextafter(0x1p1022, 0),
		1, math.Nextafter(1, 0), 0.5, 0.75, 2,
	}
	for p := 0x1p-1022; p < 0x1p1022; p *= 1.37 {
		x = append(x, p)
	}
	for i := 1; i <= 2048; i++ {
		x = append(x, float64(i)/2048, 1/(1+float64(i)*0.37))
	}
	for k := -254; k <= 254; k++ {
		// Log(x) = -4*(k+0.5)*Ln2 puts LOG2E*t on a half-integer; |k| <=
		// 254 keeps x and its neighbours inside the domain.
		b := math.Exp(-4 * (float64(k) + 0.5) * math.Ln2)
		x = append(x, b, math.Nextafter(b, 0), math.Nextafter(b, 2))
	}
	for len(x)%4 != 0 {
		x = append(x, 1)
	}
	return x
}
