package channel

import "mobiwlan/internal/fastmath"

// chainQuad2 is the AVX2 fused-sweep kernel (chainquad_amd64.s): it
// advances one two-pair column chunk of chains across four subcarriers,
// accumulating the per-subcarrier path-order sums, optionally seeding
// them from and snapshotting them to the prefix memo, and applying the
// shadow factor to the finished sums with Matrix.Scale's exact per-entry
// operation. Callers must hold the layout and 0 <= snap <= n, n >= 1
// contract documented in the assembly, and must only reach it through
// Model.sweepFused so the fusedSweepOK gate applies.
//
//go:noescape
//mobilint:hotpath
func chainQuad2(contribs, rots, out, pref *complex128, stride uintptr, n, snap, seed int, scale float64)

// fusedSweepOK gates the fused all-pairs chain sweep on AVX2.
var fusedSweepOK = fastmath.HasAVX2
