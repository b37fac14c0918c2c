package channel

import (
	"math"

	"mobiwlan/internal/fastmath"
)

// This file provides a four-lane batched pow075 for the breakpoint pass.
// A scalar pow075's Log→Exp chain is too long for the out-of-order window
// to overlap two calls; pow075x4 interleaves four chains by hand, over
// fastmath's exact Log/Exp transcriptions. Lanes never interact, so quad
// grouping cannot change a single bit.

// pow4OK gates the quad breakpoint path: fastmath's Log/Exp lanes must
// reproduce this platform's math.Log and math.Exp bit-for-bit.
var pow4OK = fastmath.LogExpExact

// pow075x4 computes pow075 of four independent inputs with the Log and
// Exp stages interleaved across lanes, so the four serial Log→Exp
// dependency chains overlap instead of running back to back. Every lane
// applies exactly pow075's operation sequence — Frexp, Exp(-0.25*Log(x)),
// the mantissa multiply, Ldexp — so each output bit-matches the scalar
// call for the same input. Callers must check pow4OK.
//
//mobilint:hotpath
func pow075x4(x0, x1, x2, x3 float64) (y0, y1, y2, y3 float64) {
	// Frexp stage (bit manipulation, cheap).
	m0, e0 := math.Frexp(x0)
	m1, e1 := math.Frexp(x1)
	m2, e2 := math.Frexp(x2)
	m3, e3 := math.Frexp(x3)

	// Log stage, interleaved. Specials cannot occur for the breakpoint's
	// positive finite ratios, but each lane still runs the full archLog
	// transcription, so any input produces the scalar result.
	l0 := fastmath.Log(x0)
	l1 := fastmath.Log(x1)
	l2 := fastmath.Log(x2)
	l3 := fastmath.Log(x3)

	// Exp stage on -0.25*log, interleaved.
	a0 := fastmath.Exp(-0.25 * l0)
	a1 := fastmath.Exp(-0.25 * l1)
	a2 := fastmath.Exp(-0.25 * l2)
	a3 := fastmath.Exp(-0.25 * l3)

	a0 *= m0
	a1 *= m1
	a2 *= m2
	a3 *= m3
	y0 = math.Ldexp(a0, e0)
	y1 = math.Ldexp(a1, e1)
	y2 = math.Ldexp(a2, e2)
	y3 = math.Ldexp(a3, e3)
	return
}
