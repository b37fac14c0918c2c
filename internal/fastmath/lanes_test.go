package fastmath

import (
	"math"
	"testing"
)

// laneSpecials are the inputs the kernels must hand back to the scalar
// code (or, for -0, compute with the right sign).
var laneSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
	reduceThreshold, -reduceThreshold, 1e300,
}

// mixedQuads returns base with each special spliced into every lane
// position of a run of in-range values, at both quad alignments a slice
// offset can produce.
func mixedQuads(base []float64) []float64 {
	out := append([]float64(nil), base...)
	for _, s := range laneSpecials {
		for pos := 0; pos < 4; pos++ {
			q := []float64{0.25, -1.5, 3e3, -7e4}
			q[pos] = s
			out = append(out, q...)
		}
		out = append(out, 0.5, s, -0.5)
	}
	return out
}

// TestSincosSliceMatchesLibrary runs SincosSlice over the SincosExact
// probe set plus quads mixing in-range lanes with out-of-domain ones,
// at every slice offset and length remainder, against math.Sincos, with
// the AVX2 lanes as probed and forced off.
func TestSincosSliceMatchesLibrary(t *testing.T) {
	if !SincosExact {
		t.Skip("Sincos gate is off on this platform")
	}
	withLanesAndWithout(t, testSincosSlice)
}

// withLanesAndWithout runs check with LanesExact as probed, then with
// the lanes forced off so the scalar fallback is exercised on every
// host.
func withLanesAndWithout(t *testing.T, check func(t *testing.T)) {
	probed := LanesExact
	defer func() { LanesExact = probed }()
	for _, on := range []bool{probed, false} {
		LanesExact = on
		check(t)
	}
}

func testSincosSlice(t *testing.T) {
	x := mixedQuads(sincosProbes())
	sin := make([]float64, len(x))
	cos := make([]float64, len(x))
	for off := 0; off < 4; off++ {
		for _, cut := range []int{0, 1, 2, 3} {
			xs := x[off : len(x)-cut]
			SincosSlice(xs, sin, cos)
			for i, p := range xs {
				ws, wc := math.Sincos(p)
				if !sameBits(sin[i], ws) || !sameBits(cos[i], wc) {
					t.Fatalf("lanes=%v off=%d cut=%d: SincosSlice(%g) = (%x, %x), math.Sincos = (%x, %x)", LanesExact, off, cut, p,
						math.Float64bits(sin[i]), math.Float64bits(cos[i]), math.Float64bits(ws), math.Float64bits(wc))
				}
			}
		}
	}
}

// TestNormPairsMatchesNormPair runs NormPairs over a u sweep (denormals
// through values above 1) crossed with v, plus quads holding u = 0,
// negative, NaN or Inf or an angle past the reduction threshold, against
// the scalar NormPair, with the AVX2 lanes as probed and forced off.
func TestNormPairsMatchesNormPair(t *testing.T) {
	withLanesAndWithout(t, testNormPairs)
}

func testNormPairs(t *testing.T) {
	u := []float64{5e-324, 1e-310, 1e-308}
	for p := 1e-300; p < 3; p *= 1.013 {
		u = append(u, p)
	}
	v := make([]float64, len(u))
	for i := range v {
		v[i] = float64(i%997) / 997
	}
	for _, bad := range [][2]float64{
		{0, 0.3}, {-1, 0.3}, {math.NaN(), 0.3}, {math.Inf(1), 0.3},
		{0.5, math.NaN()}, {0.5, 1e9}, {0.5, math.Inf(-1)}, {0.5, -0.25},
	} {
		for pos := 0; pos < 4; pos++ {
			qu := []float64{0.1, 0.2, 0.3, 0.4}
			qv := []float64{0.6, 0.7, 0.8, 0.9}
			qu[pos], qv[pos] = bad[0], bad[1]
			u = append(u, qu...)
			v = append(v, qv...)
		}
	}
	zc := make([]float64, len(u))
	zs := make([]float64, len(u))
	for off := 0; off < 4; off++ {
		us, vs := u[off:], v[off:]
		NormPairs(us, vs, zc, zs)
		for i := range us {
			wc, ws := NormPair(us[i], vs[i])
			if !sameBits(zc[i], wc) || !sameBits(zs[i], ws) {
				t.Fatalf("lanes=%v off=%d: NormPairs(%g, %g) = (%x, %x), NormPair = (%x, %x)", LanesExact, off, us[i], vs[i],
					math.Float64bits(zc[i]), math.Float64bits(zs[i]), math.Float64bits(wc), math.Float64bits(ws))
			}
		}
	}
}

// TestLaneKernelsStopAtBadQuad pins the kernels' return contract: they
// finish whole quads and stop at the first quad holding a lane outside
// their domain, which the wrappers then route to the scalar code.
func TestLaneKernelsStopAtBadQuad(t *testing.T) {
	if !LanesExact {
		t.Skip("AVX2 lanes are off on this platform")
	}
	x := []float64{1, 2, 3, 4, 5, 6, math.NaN(), 8, 9, 10, 11, 12}
	var sin, cos [12]float64
	if got := sincos4(&x[0], &sin[0], &cos[0], len(x)); got != 4 {
		t.Fatalf("sincos4 finished %d elements, want 4", got)
	}
	u := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0, 0.1, 0.2}
	v := make([]float64, len(u))
	var zc, zs [12]float64
	if got := normPairs4(&u[0], &v[0], &zc[0], &zs[0], len(u)); got != 8 {
		t.Fatalf("normPairs4 finished %d elements, want 8", got)
	}
}
