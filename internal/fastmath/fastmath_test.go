package fastmath

import (
	"math"
	"testing"
)

// TestSincosMatchesLibrary compares Sincos against math.Sincos, math.Sin
// and math.Cos bit-for-bit over a dense pseudo-random sweep far larger
// than the init-time probe, covering both hot-path domains (channel path
// angles up to ~1e5, RNG angles in [0, 2*Pi)) plus specials and the
// reduction-threshold handoff.
func TestSincosMatchesLibrary(t *testing.T) {
	if !SincosExact {
		t.Skip("Sincos gate is off on this platform; callers use math.Sincos")
	}
	check := func(x float64) {
		t.Helper()
		s, c := Sincos(x)
		ws, wc := math.Sincos(x)
		if math.Float64bits(s) != math.Float64bits(ws) && !(math.IsNaN(s) && math.IsNaN(ws)) {
			t.Fatalf("Sincos(%g) sin = %x, math.Sincos = %x", x, math.Float64bits(s), math.Float64bits(ws))
		}
		if math.Float64bits(c) != math.Float64bits(wc) && !(math.IsNaN(c) && math.IsNaN(wc)) {
			t.Fatalf("Sincos(%g) cos = %x, math.Sincos = %x", x, math.Float64bits(c), math.Float64bits(wc))
		}
		if sb := math.Float64bits(math.Sin(x)); sb != math.Float64bits(ws) && !math.IsNaN(x) {
			t.Fatalf("math.Sin(%g) = %x disagrees with math.Sincos = %x", x, sb, math.Float64bits(ws))
		}
		if cb := math.Float64bits(math.Cos(x)); cb != math.Float64bits(wc) && !math.IsNaN(x) {
			t.Fatalf("math.Cos(%g) = %x disagrees with math.Sincos = %x", x, cb, math.Float64bits(wc))
		}
	}
	for _, x := range []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -5e-324, 1e-310,
		reduceThreshold - 1, reduceThreshold, reduceThreshold + 1,
		-reduceThreshold, 1e300, math.Pi, -math.Pi, math.Pi / 2,
	} {
		check(x)
	}
	// SplitMix64-style sweep: uniform magnitudes over [0, 1e5) and signs.
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	n := 200000
	if testing.Short() {
		n = 20000
	}
	for i := 0; i < n; i++ {
		u := float64(next()>>11) / (1 << 53)
		x := (u - 0.5) * 2e5
		check(x)
		check(u * 2 * math.Pi)
	}
}

// TestSincosOctantBoundaries walks exact ULP neighbourhoods of the
// octant boundaries k*Pi/4, where the branchless ladder's j computation
// is most likely to disagree with the library's if it ever drifts.
func TestSincosOctantBoundaries(t *testing.T) {
	if !SincosExact {
		t.Skip("Sincos gate is off on this platform")
	}
	for k := 0; k <= 256; k++ {
		b := float64(k) * (math.Pi / 4)
		for _, x := range []float64{
			b, -b,
			math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1)),
			-math.Nextafter(b, 0), -math.Nextafter(b, math.Inf(1)),
		} {
			s, c := Sincos(x)
			ws, wc := math.Sincos(x)
			if math.Float64bits(s) != math.Float64bits(ws) || math.Float64bits(c) != math.Float64bits(wc) {
				t.Fatalf("boundary %d*Pi/4 at %g: Sincos = (%x, %x), math.Sincos = (%x, %x)",
					k, x, math.Float64bits(s), math.Float64bits(c), math.Float64bits(ws), math.Float64bits(wc))
			}
		}
	}
}

// TestLogExpMatchLibrary compares the Log and Exp transcriptions with
// math.Log and math.Exp bit-for-bit over a dense sweep of magnitudes and
// signs, beyond the init-time LogExpExact probe.
func TestLogExpMatchLibrary(t *testing.T) {
	if !LogExpExact {
		t.Skip("Log/Exp gate is off on this platform; callers use the library")
	}
	for x := 1e-300; x < 1e300; x *= 1.0007 {
		for _, p := range []float64{x, -x, math.Log(x)} {
			if !sameBits(Log(p), math.Log(p)) {
				t.Fatalf("Log(%g) = %x, math.Log = %x", p, math.Float64bits(Log(p)), math.Float64bits(math.Log(p)))
			}
			if !sameBits(Exp(p), math.Exp(p)) {
				t.Fatalf("Exp(%g) = %x, math.Exp = %x", p, math.Float64bits(Exp(p)), math.Float64bits(math.Exp(p)))
			}
		}
	}
}
