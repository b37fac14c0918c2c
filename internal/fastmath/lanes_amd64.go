package fastmath

// cpuHasAVX2 reports whether this CPU and OS support AVX2 and YMM state
// (cpu_amd64.s).
func cpuHasAVX2() bool

// HasAVX2 reports whether this CPU and OS support AVX2. It gates every
// AVX2 kernel in the module: the lanes here and channel's fused sweep.
var HasAVX2 = cpuHasAVX2()

// sincos4 is the four-lane Sincos kernel (lanes_amd64.s). It fills
// sin/cos[0:n] for n a multiple of 4 and returns how many elements it
// finished before the first quad with a lane outside its domain. Callers
// reach it only through SincosSlice, behind LanesExact.
//
//go:noescape
//mobilint:hotpath
func sincos4(x, sin, cos *float64, n int) int

// normPairs4 is the four-lane Box-Muller kernel (lanes_amd64.s), with
// sincos4's n and return contract. Callers reach it only through
// NormPairs, behind LanesExact.
//
//go:noescape
//mobilint:hotpath
func normPairs4(u, v, zc, zs *float64, n int) int
