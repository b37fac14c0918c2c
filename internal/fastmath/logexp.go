package fastmath

import "math"

// Log and Exp are operation-for-operation Go transcriptions of what
// math runs on amd64: archLog (log_amd64.s, plain IEEE ops throughout)
// and archExp's FMA variant (exp_amd64.s, via the bit-exact math.FMA).
// Unlike the library entry points they are ordinary Go that a caller can
// interleave by hand across independent inputs (channel's pow075x4). The
// init-time LogExpExact probe pins both to math.Log/math.Exp; where it
// fails (non-amd64 ports, a non-FMA archExp) callers keep the library.

// Constants from math's exp_amd64.s / log_amd64.s, parsed from the same
// decimal literals the assembler rounds to the same float64 values.
const (
	expLOG2E    = 1.4426950408889634073599246810018920
	expLN2U     = 0.69314718055966295651160180568695068359375
	expLN2L     = 0.28235290563031577122588448175013436025525412068e-12
	expOverflow = 7.09782712893384e+02

	expC2 = 1.6666666666666666667e-1
	expC3 = 4.1666666666666666667e-2
	expC4 = 8.3333333333333333333e-3
	expC5 = 1.3888888888888888889e-3
	expC6 = 1.9841269841269841270e-4
	expC7 = 2.4801587301587301587e-5

	logHSqrt2 = 7.07106781186547524401e-01
	logLn2Hi  = 6.93147180369123816490e-01
	logLn2Lo  = 1.90821492927058770002e-10
	logL1     = 6.666666666666735130e-01
	logL2     = 3.999999999940941908e-01
	logL3     = 2.857142874366239149e-01
	logL4     = 2.222219843214978396e-01
	logL5     = 1.818357216161805012e-01
	logL6     = 1.531383769920937332e-01
	logL7     = 1.479819860511658591e-01
)

// Log is archLog transcribed: the same bit-level Frexp (including its
// treatment of denormals), the same branchless-in-effect Sqrt2/2
// adjustment (the branch arms compute k-1.0 / f1*2.0, exactly the values
// the assembly's mask selects), and the same polynomial and reconstruction
// operation order.
func Log(x float64) float64 {
	bits := math.Float64bits(x)
	if bits&^(1<<63) == 0 {
		return math.Inf(-1)
	}
	if int64(bits) < 0 {
		return math.NaN()
	}
	if bits >= 0x7FF0000000000000 {
		return x // +Inf or NaN
	}
	f1 := math.Float64frombits(bits&0x000FFFFFFFFFFFFF | 0x3FE0000000000000)
	k := float64(int32(bits>>52&0x7FF) - 0x3FE)
	if f1 <= logHSqrt2 {
		k -= 1
		f1 *= 2
	}
	f := f1 - 1
	s := f / (2 + f)
	s2 := s * s
	s4 := s2 * s2
	t1 := s2 * (((logL7*s4+logL5)*s4+logL3)*s4 + logL1)
	t2 := s4 * ((logL6*s4+logL4)*s4 + logL2)
	r := t1 + t2
	hfsq := 0.5 * f * f
	return k*logLn2Hi - ((hfsq - (s*(hfsq+r) + k*logLn2Lo)) - f)
}

// Exp is archExp's FMA variant transcribed: round-to-nearest exponent
// split, fused Cody-Waite reduction, the fused polynomial, three
// fr*(2+fr) doublings with the fourth fused with the final +1, and the
// same two-step denormal ldexp tail.
func Exp(x float64) float64 {
	bits := math.Float64bits(x)
	if bits&^(1<<63) >= 0x7FF0000000000000 {
		if bits == math.Float64bits(math.Inf(-1)) {
			return 0
		}
		return x // NaN or +Inf
	}
	if x > expOverflow {
		return math.Inf(1)
	}
	k := int32(math.RoundToEven(expLOG2E * x))
	kf := float64(k)
	z := math.FMA(-expLN2U, kf, x)
	z = math.FMA(-expLN2L, kf, z)
	z *= 0.0625
	p := expC7
	p = math.FMA(p, z, expC6)
	p = math.FMA(p, z, expC5)
	p = math.FMA(p, z, expC4)
	p = math.FMA(p, z, expC3)
	p = math.FMA(p, z, expC2)
	p = math.FMA(p, z, 0.5)
	p = math.FMA(p, z, 1.0)
	fr := z * p
	fr = fr * (2 + fr)
	fr = fr * (2 + fr)
	fr = fr * (2 + fr)
	fr = math.FMA(fr, 2+fr, 1.0)
	return expLdexp(fr, k)
}

// expLdexp is archExp's ldexp tail: bias, the denormal split (scale by
// 2^(k+1022) then 2^-1022 so the last multiply performs the one rounding
// into the denormal), and the overflow/underflow exits.
func expLdexp(fr float64, k int32) float64 {
	bx := k + 0x3FF
	if bx <= 0 {
		if bx < -52 {
			return 0
		}
		bx += 0x3FE
		fr *= math.Float64frombits(uint64(bx) << 52)
		return fr * math.Float64frombits(1<<52) // 2^-1022
	}
	if bx >= 0x7FF {
		return math.Inf(1)
	}
	return fr * math.Float64frombits(uint64(bx)<<52)
}

// LogExpExact gates Log and Exp: true only when they reproduce this
// platform's math.Log and math.Exp bit-for-bit across a probe sweep of
// magnitudes, breakpoint-typical ratios, specials and denormals.
var LogExpExact = func() bool {
	probes := []float64{
		0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, 1e-310, math.MaxFloat64, 709, 710, -745, -746,
	}
	x := 1e-12
	for i := 0; i < 600; i++ {
		probes = append(probes, x, -x)
		x *= 1.1
	}
	for _, p := range probes {
		if !sameBits(Log(p), math.Log(p)) || !sameBits(Exp(p), math.Exp(p)) {
			return false
		}
	}
	return true
}()
