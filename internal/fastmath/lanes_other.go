//go:build !amd64

package fastmath

// HasAVX2 is false off amd64: the AVX2 kernels exist only there.
const HasAVX2 = false

// sincos4 matches the amd64 declaration so lanes.go compiles
// everywhere. It finishes no elements, so a caller that got past the
// LanesExact gate would still fall through to the scalar code.
func sincos4(x, sin, cos *float64, n int) int { return 0 }

// normPairs4 is sincos4's counterpart for NormPairs.
func normPairs4(u, v, zc, zs *float64, n int) int { return 0 }
