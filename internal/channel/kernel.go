package channel

import (
	"math"

	"mobiwlan/internal/csi"
	"mobiwlan/internal/fastmath"
	"mobiwlan/internal/geom"
)

// This file holds the batched struct-of-arrays response kernel: the two
// cache-backed evaluation strategies (direct and incremental) that replace
// the old per-(pair, subcarrier, path) series cache, plus the chain-prep
// pass both share. responseUncached in channel.go stays the scalar
// reference both strategies are tested bit-for-bit against.
//
// Layout: all per-path cache state is struct-of-arrays, indexed
// [pair*nPaths+pi] — the memoized initial phasor (ph0), per-subcarrier
// rotation (rot) and path length (lens) are two complex128 and one float64
// per chain instead of the old Subcarriers-sized phasor series, so the
// whole working set (~16 KB at default dimensions, versus ~124 KB for the
// series) stays cache-resident. The ordered per-subcarrier partial sum of
// the leading unchanged paths is memoized once per pair in pref
// [pair*nSub+sc], which is what lets an environmental step pay only for
// the moving chains.
//
// Both strategies are organised as struct-of-arrays passes: antenna-leg
// distances, then every pair's chain lengths and base amplitudes, then
// one chain-prep pass over all pairs' (changed) chains — gathered
// breakpoint powers, then the phasor Sincos fill — then the subcarrier
// chain loop. Splitting the per-path work this way changes no per-value
// operation — each pass applies exactly the op subsequence the scalar
// reference applies to that value — but it puts the long-latency calls
// (Pow's Log/Exp pair, Sincos) back to back in the four-lane fastmath
// kernels, across paths and antenna pairs, instead of serialising one
// path's full pipeline at a time.
//
// Bit-identity argument (see DESIGN.md, "Batched SoA response kernel"):
// the value the uncached reference adds at subcarrier sc for path pi is
// the initial phasor advanced by sc sequential complex multiplies, and the
// per-subcarrier total is accumulated in path order. Both strategies below
// preserve exactly that: chains always advance by the same `*=` sequence
// from the same initial phasor (memoized or recomputed, the value is a
// pure function of (length, gain) and the fixed config), and every
// per-subcarrier sum is seeded with the memoized ordered prefix (itself
// produced by the same process) and extended in path order. The chain
// loop retires four subcarriers per pass over the paths, which reorders
// nothing: each chain still advances by the same multiply sequence, and
// each subcarrier's sum still adds the same values in path order — the
// four accumulators just live across one loop body instead of four.

// pow075Exact reports whether fastmath.Pow075 (the exact x^0.75
// sequence behind fastmath.Pow075Slice) reproduces math.Pow bit-for-bit
// on this platform, checked once over a deterministic probe set. True
// wherever math.Pow is the portable Go implementation (everything but
// s390x); if a platform ever diverges, the kernel falls back to math.Pow.
var pow075Exact = func() bool {
	x := 0.999999
	for i := 0; i < 256; i++ {
		if fastmath.Pow075(x) != math.Pow(x, 0.75) {
			return false
		}
		x *= 0.917
	}
	return true
}()

// Probes reports the kernel's init-time fast-path gates by name, for
// host fingerprints: two timings compare only when the same fast paths
// were on.
func Probes() map[string]bool {
	return map[string]bool{"fusedSweepOK": fusedSweepOK, "pow075Exact": pow075Exact}
}

// fillLegs computes the client-independent (AP-side) and client-dependent
// antenna-leg distances for every bounce path in paths[lo:]. A bounce
// length is txPos.Dist(via) + via.Dist(rxPos); each Dist result depends
// on one antenna only, so computing each leg once per antenna and adding
// the memoized float64s per pair is the identical addition the scalar
// reference performs — pure-function memoization, not a reassociation.
func (m *Model) fillLegs(client geom.Point, lo int) {
	nPaths := len(m.paths)
	if m.sharedHot {
		// AP-side legs memoized fleet-wide at the primed instant
		// (sharedgeom.go): path pi is scatterer pi-1 by construction, so
		// the cached rows index straight in. Same Dist calls, same bits.
		nScat := nPaths - 1
		for txi := range m.apAnts {
			legs := m.legsTx[txi*nPaths : (txi+1)*nPaths]
			row := m.shared.legsTx[txi*nScat : (txi+1)*nScat]
			for pi := lo; pi < nPaths; pi++ {
				if m.paths[pi].bounce {
					legs[pi] = row[pi-1]
				}
			}
		}
	} else {
		for txi, txOff := range m.apAnts {
			txPos := m.ap.Add(txOff)
			legs := m.legsTx[txi*nPaths : (txi+1)*nPaths]
			for pi := lo; pi < nPaths; pi++ {
				if p := &m.paths[pi]; p.bounce {
					legs[pi] = txPos.Dist(p.via)
				}
			}
		}
	}
	for rxi, rxOff := range m.clientAnts {
		rxPos := client.Add(rxOff)
		legs := m.legsRx[rxi*nPaths : (rxi+1)*nPaths]
		for pi := lo; pi < nPaths; pi++ {
			if p := &m.paths[pi]; p.bounce {
				legs[pi] = p.via.Dist(rxPos)
			}
		}
	}
}

// prepChunk is the chain-prep pass's stack chunk: 64 chains, whose two
// angles each fill a 128-entry Sincos gather.
const prepChunk = 64

// chainBatch is one stack chunk of the chain-prep pass: up to prepChunk
// chains, named by their [pair*nPaths+pi] index into the cache, with
// their base amplitudes gain·λ/(4π)/length.
type chainBatch struct {
	n   int
	ci  [prepChunk]int32
	amp [prepChunk]float64
}

// add queues chain ci with base amplitude amp and reports whether the
// chunk is now full, so the caller runs the pass on it.
func (b *chainBatch) add(ci int, amp float64) bool {
	b.ci[b.n] = int32(ci)
	b.amp[b.n] = amp
	b.n++
	return b.n == prepChunk
}

// prepChains is the chain-prep pass over one chunk: it fills the
// memoized initial phasor and rotation (ph0, rot) of every queued chain
// from its cached length and base amplitude, then empties the chunk.
// Each chain gets exactly the scalar reference's op sequence: the
// breakpoint excess loss amp * pow(bp/length, (n-2)/2) when length > bp,
// then the initial phasor amp·e^{-j2πf0L/c} and the per-subcarrier
// rotation e^{-j2πΔfL/c} as cmplx.Rect builds them (Sincos, then the
// r·cos / r·sin products; the rotation's unit radius makes its products
// the Sincos results themselves). The transcendentals run gathered
// across the whole chunk — every antenna pair's chains together —
// through the batched fastmath wrappers, so the wrappers' scalar ragged
// tails come once per chunk.
func (m *Model) prepChains(b *chainBatch) {
	n := b.n
	b.n = 0
	c := &m.cache
	ci, amp := b.ci[:n], b.amp[:n]
	if bp := m.cfg.PathLossBreakM; bp > 0 && m.cfg.PathLossExponent > 2 {
		var ratio [prepChunk]float64
		var at [prepChunk]uint8
		nr := 0
		for i, k := range ci {
			if length := c.lens[k]; length > bp {
				ratio[nr] = bp / length
				at[nr] = uint8(i)
				nr++
			}
		}
		if m.pow075OK {
			fastmath.Pow075Slice(ratio[:nr], ratio[:nr])
			for j, i := range at[:nr] {
				amp[i] *= ratio[j]
			}
		} else {
			pe := (m.cfg.PathLossExponent - 2) / 2
			for j, i := range at[:nr] {
				amp[i] *= math.Pow(ratio[j], pe)
			}
		}
	}

	// k0/kd fold the constant prefix of the reference's angle expression
	// -2·π·f·length/c; the remaining ·length and /c stay separate ops in
	// the reference's order, so the angle is bit-identical.
	k0 := -2 * math.Pi * m.f0
	kd := -2 * math.Pi * m.df
	var ang, sin, cos [2 * prepChunk]float64
	for i, k := range ci {
		length := c.lens[k]
		ang[2*i] = k0 * length / SpeedOfLight
		ang[2*i+1] = kd * length / SpeedOfLight
	}
	fastmath.SincosSlice(ang[:2*n], sin[:], cos[:])
	for i, k := range ci {
		a := amp[i]
		c.ph0[k] = complex(a*cos[2*i], a*sin[2*i])
		c.rot[k] = complex(cos[2*i+1], sin[2*i+1])
	}
}

// evalDirect recomputes every path chain: the client moved (or the cache
// is cold), so every pair's path lengths changed and no per-path state is
// reusable. The freshly computed (length, ph0, rot) triples are stored
// into the per-(pair, path) memo so the next incremental call can reuse
// them, and the prefix memo is invalidated.
//
//mobilint:hotpath
func (m *Model) evalDirect(client geom.Point, h *csi.Matrix) {
	c := &m.cache
	nPaths := len(m.paths)
	nSub := m.cfg.Subcarriers
	nPairs := m.cfg.NTx * m.cfg.NRx
	lambdaScale := m.cfg.Wavelength() / (4 * math.Pi)
	data := h.Data()

	// Lengths and base amplitudes of every pair's chains, queued for one
	// chain-prep pass over all of them.
	m.fillLegs(client, 0)
	var b chainBatch
	for txi, txOff := range m.apAnts {
		txPos := m.ap.Add(txOff)
		legsTx := m.legsTx[txi*nPaths : (txi+1)*nPaths]
		for rxi, rxOff := range m.clientAnts {
			rxPos := client.Add(rxOff)
			legsRx := m.legsRx[rxi*nPaths : (rxi+1)*nPaths]
			base := (txi*m.cfg.NRx + rxi) * nPaths
			lens := c.lens[base : base+nPaths]
			for pi := range m.paths {
				p := &m.paths[pi]
				var length float64
				if p.bounce {
					length = legsTx[pi] + legsRx[pi]
				} else {
					length = txPos.Dist(rxPos)
				}
				if length < 0.1 {
					length = 0.1
				}
				lens[pi] = length
				if b.add(base+pi, p.gain*lambdaScale/length) {
					m.prepChains(&b)
				}
			}
		}
	}
	m.prepChains(&b)

	if m.fused {
		m.scatterFused(0)
		m.sweepFused(data, c.pref, nSub, nPairs, nPaths, 0, 0, c.shadowScale)
	} else {
		for pair := 0; pair < nPairs; pair++ {
			m.contribs = append(m.contribs[:0], c.ph0[pair*nPaths:(pair+1)*nPaths]...)
			chainSweep(data[pair:], m.contribs, c.rot[pair*nPaths:(pair+1)*nPaths], nSub, nPairs)
		}
	}
	c.pathEvals += uint64(nPairs * nPaths)
	c.prefValid = false
	c.prefLen = 0
}

// scatterFused copies every pair's memoized chains for paths
// [start, nPaths) into the path-major rows the fused sweep walks: chain
// row pi-start holds all pairs' values for path pi.
func (m *Model) scatterFused(start int) {
	c := &m.cache
	nPaths := len(m.paths)
	nPairs := m.cfg.NTx * m.cfg.NRx
	for pair := 0; pair < nPairs; pair++ {
		ph0 := c.ph0[pair*nPaths : (pair+1)*nPaths]
		rot := c.rot[pair*nPaths : (pair+1)*nPaths]
		for pi := start; pi < nPaths; pi++ {
			row := (pi - start) * nPairs
			m.contribsP[row+pair] = ph0[pi]
			m.rotsP[row+pair] = rot[pi]
		}
	}
}

// sweepFused runs the chain sweep for every antenna pair at once on the
// path-major scratch, two pair columns per AVX2 kernel call and four
// subcarriers per pass. Each (subcarrier, pair) cell still receives
// exactly the path-order sum of exactly the same chain values — the
// kernel's lanes are independent pairs and its complex multiply matches
// the compiler's operand order per lane (chainquad_amd64.s) — so fusing
// pairs changes no bits, it only removes the per-pair passes over the
// chain state. out rows are the natural CSI layout (pair-contiguous per
// subcarrier); pref rows use the same sc-major layout when fused.
//
// n is the chain-row count, snap the row count whose running sums extend
// the prefix memo (0 outside incremental calls), seed nonzero to start
// the sums from the memoized prefix. scale is the shadowing factor the
// kernel folds into the finished sums (Matrix.Scale's exact per-entry
// operation, applied after the unscaled prefix snapshot), replacing the
// separate whole-matrix Scale pass.
//
//mobilint:hotpath
func (m *Model) sweepFused(out, pref []complex128, nSub, nPairs, n, snap, seed int, scale float64) {
	stride := uintptr(nPairs) * 16
	for sc := 0; sc < nSub; sc += 4 {
		row := sc * nPairs
		for po := 0; po < nPairs; po += 2 {
			chainQuad2(&m.contribsP[po], &m.rotsP[po], &out[row+po], &pref[row+po], stride, n, snap, seed, scale)
		}
	}
}

// chainSweep advances every chain in contribs by its rotation across nSub
// subcarriers, writing the per-subcarrier path-order sums to out[sc*stride].
// Four subcarriers retire per pass over the chains: each chain value is
// loaded once, advanced by the same four sequential multiplies the
// one-subcarrier loop would apply, and stored once, while four
// accumulators collect the four subcarriers' sums — same multiply
// sequence per chain, same addition order per subcarrier, a quarter of
// the chain-state memory traffic, and four independent accumulation
// chains for the FPU to overlap.
//
//mobilint:hotpath
func chainSweep(out, contribs, rots []complex128, nSub, stride int) {
	rots = rots[:len(contribs)]
	idx := 0
	sc := 0
	for ; sc+4 <= nSub; sc += 4 {
		var s0, s1, s2, s3 complex128
		for pi := range contribs {
			ci := contribs[pi]
			r := rots[pi]
			s0 += ci
			ci *= r
			s1 += ci
			ci *= r
			s2 += ci
			ci *= r
			s3 += ci
			ci *= r
			contribs[pi] = ci
		}
		out[idx] = s0
		idx += stride
		out[idx] = s1
		idx += stride
		out[idx] = s2
		idx += stride
		out[idx] = s3
		idx += stride
	}
	for ; sc < nSub; sc++ {
		var sum complex128
		for pi := range contribs {
			sum += contribs[pi]
			contribs[pi] *= rots[pi]
		}
		out[idx] = sum
		idx += stride
	}
}

// evalIncremental serves a call where the client is unchanged but some
// scatterers moved. Paths split at `first`, the lowest index whose epoch
// key (via position, gain) changed: an unchanged via and gain imply an
// unchanged length for every antenna pair (the client did not move, the
// AP never does), hence a bit-identical phasor series.
//
//   - Paths [0, start) are served by the memoized ordered prefix sum: the
//     per-subcarrier accumulator is seeded with pref, skipping their
//     chains entirely.
//   - Paths [start, first) re-run their chains from the memoized (ph0,
//     rot) phasors — no length, breakpoint, or Sincos work — while the
//     running sum is snapshotted at the `first` boundary to extend the
//     prefix for the next call.
//   - Paths [first, nPaths) are re-keyed on (length, gain) exactly like
//     the old per-path cache: an unchanged key reuses the memoized
//     phasors, a changed one recomputes and overwrites them.
//
// The accumulation order over paths is untouched in all three regions, so
// the output is bit-identical to the scalar reference.
//
//mobilint:hotpath
func (m *Model) evalIncremental(client geom.Point, h *csi.Matrix) {
	c := &m.cache
	nPaths := len(m.paths)
	nSub := m.cfg.Subcarriers
	nPairs := m.cfg.NTx * m.cfg.NRx

	first := 0
	for first < nPaths {
		p := m.paths[first]
		if p.via != c.vias[first] || p.gain != c.gains[first] {
			break
		}
		first++
	}
	start := 0
	if c.prefValid && c.prefLen <= first {
		start = c.prefLen
	}

	// Re-key the suffix of every pair: (length, gain) fully determine the
	// phasor pair — amp is a pure function of them and the fixed config.
	// Gains are compared against the previous epoch's values (c.gains is
	// only rewritten by commit), so every pair sees the same stale-or-fresh
	// verdict. Changed chains of all pairs are queued for one chain-prep
	// pass.
	lambdaScale := m.cfg.Wavelength() / (4 * math.Pi)
	data := h.Data()
	m.fillLegs(client, first)
	var b chainBatch
	for txi, txOff := range m.apAnts {
		txPos := m.ap.Add(txOff)
		legsTx := m.legsTx[txi*nPaths : (txi+1)*nPaths]
		for rxi, rxOff := range m.clientAnts {
			rxPos := client.Add(rxOff)
			legsRx := m.legsRx[rxi*nPaths : (rxi+1)*nPaths]
			base := (txi*m.cfg.NRx + rxi) * nPaths
			lens := c.lens[base : base+nPaths]
			for pi := first; pi < nPaths; pi++ {
				p := &m.paths[pi]
				var length float64
				if p.bounce {
					length = legsTx[pi] + legsRx[pi]
				} else {
					length = txPos.Dist(rxPos)
				}
				if length < 0.1 {
					length = 0.1
				}
				if length == lens[pi] && p.gain == c.gains[pi] {
					c.pathReuses++
				} else {
					c.pathEvals++
					lens[pi] = length
					if b.add(base+pi, p.gain*lambdaScale/length) {
						m.prepChains(&b)
					}
				}
			}
			c.pathReuses += uint64(first)
		}
	}
	m.prepChains(&b)

	// Gather the chains to run: memoized phasors for paths [start, first),
	// fresh-or-reused phasors for [first, nPaths).
	if m.fused {
		m.scatterFused(start)
		seed := 0
		if start > 0 {
			seed = 1
		}
		m.sweepFused(data, c.pref, nSub, nPairs, nPaths-start, first-start, seed, c.shadowScale)
	} else {
		for pair := 0; pair < nPairs; pair++ {
			m.contribs = append(m.contribs[:0], c.ph0[pair*nPaths+start:(pair+1)*nPaths]...)
			m.rots = append(m.rots[:0], c.rot[pair*nPaths+start:(pair+1)*nPaths]...)
			chainSweepPrefixed(data[pair:], c.pref[pair*nSub:(pair+1)*nSub], m.contribs, m.rots,
				nSub, nPairs, start, first-start)
		}
	}
	c.prefLen = first
	c.prefValid = true
}

// chainSweepPrefixed is chainSweep with prefix seeding: each subcarrier's
// accumulator starts from the memoized ordered prefix (when start > 0),
// runs the first snap chains and snapshots the extended prefix at that
// boundary, then finishes with the remaining chains. Same four-subcarrier
// retirement as chainSweep; the snapshot values are exactly the sums the
// one-subcarrier loop would snapshot. When snap is 0 the prefix is
// already exactly pref's contents, so the (bit-identical) store is
// skipped.
//
//mobilint:hotpath
func chainSweepPrefixed(out, pref, contribs, rots []complex128, nSub, stride, start, snap int) {
	rots = rots[:len(contribs)]
	idx := 0
	sc := 0
	for ; sc+4 <= nSub; sc += 4 {
		var s0, s1, s2, s3 complex128
		if start > 0 {
			s0, s1, s2, s3 = pref[sc], pref[sc+1], pref[sc+2], pref[sc+3]
		}
		for pi := 0; pi < snap; pi++ {
			ci := contribs[pi]
			r := rots[pi]
			s0 += ci
			ci *= r
			s1 += ci
			ci *= r
			s2 += ci
			ci *= r
			s3 += ci
			ci *= r
			contribs[pi] = ci
		}
		if snap > 0 {
			pref[sc], pref[sc+1], pref[sc+2], pref[sc+3] = s0, s1, s2, s3
		}
		for pi := snap; pi < len(contribs); pi++ {
			ci := contribs[pi]
			r := rots[pi]
			s0 += ci
			ci *= r
			s1 += ci
			ci *= r
			s2 += ci
			ci *= r
			s3 += ci
			ci *= r
			contribs[pi] = ci
		}
		out[idx] = s0
		idx += stride
		out[idx] = s1
		idx += stride
		out[idx] = s2
		idx += stride
		out[idx] = s3
		idx += stride
	}
	for ; sc < nSub; sc++ {
		var sum complex128
		if start > 0 {
			sum = pref[sc]
		}
		for pi := 0; pi < snap; pi++ {
			sum += contribs[pi]
			contribs[pi] *= rots[pi]
		}
		if snap > 0 {
			pref[sc] = sum
		}
		for pi := snap; pi < len(contribs); pi++ {
			sum += contribs[pi]
			contribs[pi] *= rots[pi]
		}
		out[idx] = sum
		idx += stride
	}
}
