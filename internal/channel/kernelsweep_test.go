package channel

import (
	"fmt"
	"math"
	"testing"

	"mobiwlan/internal/csi"
	"mobiwlan/internal/fastmath"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/stats"
)

// This file is the kernel-equivalence configuration sweep: the batched
// struct-of-arrays strategies (fused AVX2 sweep where eligible, the Go
// chain sweep otherwise) are asserted bit-identical to the scalar
// responseUncached reference across a grid of channel shapes — path
// counts, subcarrier counts, antenna geometries and both sides of the
// breakpoint path-loss branch — not just the default 52x3x2 shape the
// golden traces pin.

// sweepShape is one (subcarriers, NTx, NRx) point. The grid mixes
// fused-eligible shapes (even NTx*NRx, subcarriers % 4 == 0) with shapes
// that must take the Go fallback sweep (odd pair count, ragged
// subcarrier tails).
type sweepShape struct{ sub, ntx, nrx int }

// sweepScene is one scatterer population: nPaths = 1 + static + walls
// (8) + moving, so the grid covers the single-path LoS degenerate case
// through populations larger than the default scene.
type sweepScene struct{ static, moving int }

// sweepLoss selects a breakpoint branch: the exact-0.75 fast path, a
// general exponent that must take math.Pow, and no breakpoint at all.
type sweepLoss struct {
	name     string
	exponent float64
	breakM   float64
}

// TestKernelEquivalenceSweep runs every (shape x scene x loss) cell —
// 90 seeded configurations — through a repeated-and-advancing time
// series and asserts three models agree bit-for-bit at every step:
//
//   - uncached: the scalar per-call reference (DisableCache)
//   - cached: the batched kernel as built (fused on capable hardware)
//   - fallback: the batched kernel with the fused sweep and the
//     four-lane Sincos forced off, so the AVX2 kernels and the Go paths
//     are compared against each other on every fused-eligible cell, not
//     just against the reference
//
// Modes rotate per cell so the series exercises evalDirect (client
// motion), evalIncremental (scatterer-only motion) and the epoch fast
// path (repeated timestamps) across the whole grid.
func TestKernelEquivalenceSweep(t *testing.T) {
	shapes := []sweepShape{
		{52, 3, 2}, // paper default: fused (6 pairs, 52 = 4*13)
		{48, 2, 2}, // fused, smaller
		{16, 4, 2}, // fused, wide array
		{52, 3, 1}, // odd pair count: fallback
		{30, 3, 2}, // ragged subcarriers: fallback
		{8, 1, 1},  // single pair: fallback
	}
	scenes := []sweepScene{
		{0, 0},  // LoS + walls only
		{12, 4}, // paper default
		{27, 6}, // denser than default
	}
	losses := []sweepLoss{
		{"pow075", 3.5, 5},  // (3.5-2)/2 = 0.75: exact fast path
		{"powgen", 4.2, 5},  // general exponent: math.Pow branch
		{"nobreak", 3.5, 0}, // breakpoint disabled
	}
	modes := []mobility.Mode{mobility.Environmental, mobility.Macro, mobility.Micro}
	times := []float64{0, 0, 0.05, 0.05, 0.1, 0.73, 0.73, 0.75}

	nConfigs := 0
	nFused := 0
	for si, shape := range shapes {
		for ci, scene := range scenes {
			for li, loss := range losses {
				cfg := DefaultConfig()
				cfg.Subcarriers = shape.sub
				cfg.NTx, cfg.NRx = shape.ntx, shape.nrx
				cfg.PathLossExponent = loss.exponent
				cfg.PathLossBreakM = loss.breakM

				scfg := mobility.DefaultSceneConfig()
				scfg.StaticScatterers = scene.static
				scfg.MovingScatterers = scene.moving

				mode := modes[(si+ci+li)%len(modes)]
				seed := uint64(1000*si + 100*ci + 10*li)
				build := func(rng *stats.RNG) *mobility.Scenario {
					return mobility.NewScenario(mode, scfg, rng)
				}
				cached, uncached := cachedAndUncached(cfg, build, seed)
				fallback := New(cfg, build(stats.NewRNG(seed)), stats.NewRNG(seed+1000))
				fallback.fused = false

				nConfigs++
				if cached.fused {
					nFused++
				}
				cell := fmt.Sprintf("%dx%dx%d/%d+%d/%s/%v",
					shape.sub, shape.ntx, shape.nrx, scene.static, scene.moving, loss.name, mode)
				var hc, hu, hf *csi.Matrix
				for _, tt := range times {
					hc = cached.ResponseInto(tt, hc)
					hu = uncached.ResponseInto(tt, hu)
					withoutLanes(func() { hf = fallback.ResponseInto(tt, hf) })
					requireSameBits(t, cell+" cached-vs-uncached", tt, hc, hu)
					requireSameBits(t, cell+" fallback-vs-uncached", tt, hf, hu)
				}
			}
		}
	}
	if nConfigs < 50 {
		t.Fatalf("sweep covers %d configurations, want >= 50", nConfigs)
	}
	if fusedSweepOK && nFused == 0 {
		t.Fatal("AVX2 is available but no sweep cell exercised the fused kernel")
	}
	t.Logf("swept %d configurations (%d fused)", nConfigs, nFused)
}

// TestPow075MatchesPow pins the scalar and quad-gathered breakpoint
// power helpers against math.Pow bit-for-bit over the ratio domain the
// kernel feeds them (bp/length in (0, 1]) plus magnitude extremes. The
// init-time gates make a mismatch fall back safely; this test makes a
// platform where the gates trip visible instead of silent.
func TestPow075MatchesPow(t *testing.T) {
	if !pow075Exact {
		t.Skip("pow075 gate is off on this platform; kernel uses math.Pow")
	}
	probes := []float64{1, 0.999999999, 0.5, 1e-6, 1e-300, 5e-324}
	x := 1.0
	for i := 0; i < 400; i++ {
		x *= 0.971
		probes = append(probes, x)
	}
	for _, p := range probes {
		want := math.Pow(p, 0.75)
		if got := pow075(p); got != want {
			t.Fatalf("pow075(%g) = %g, math.Pow = %g", p, got, want)
		}
	}
	if !pow4OK {
		t.Skip("pow075x4 gate is off on this platform")
	}
	for i := 0; i+4 <= len(probes); i += 4 {
		y0, y1, y2, y3 := pow075x4(probes[i], probes[i+1], probes[i+2], probes[i+3])
		for k, got := range []float64{y0, y1, y2, y3} {
			if want := pow075(probes[i+k]); got != want {
				t.Fatalf("pow075x4 lane %d at %g = %g, pow075 = %g", k, probes[i+k], got, want)
			}
		}
	}
}

// TestMeasureIntoLanesMatchScalar pins the batched noise draw and the
// batched phasor pass to the scalar code behind them: two models built
// from one seed, one run with the AVX2 lanes forced off, must emit
// bit-identical CSI estimates and RSSI readings over a seeded stream
// that alternates the pending Box-Muller spare (each RSSI draw flips it)
// across shapes whose noise lengths are odd and even multiples of the
// fill chunk.
func TestMeasureIntoLanesMatchScalar(t *testing.T) {
	shapes := []sweepShape{{52, 3, 2}, {30, 3, 1}, {8, 1, 1}, {64, 4, 4}}
	modes := []mobility.Mode{mobility.Environmental, mobility.Macro, mobility.Micro}
	for si, shape := range shapes {
		for mi, mode := range modes {
			cfg := DefaultConfig()
			cfg.Subcarriers = shape.sub
			cfg.NTx, cfg.NRx = shape.ntx, shape.nrx
			seed := uint64(77 + 10*si + mi)
			build := func() *Model {
				scen := mobility.NewScenario(mode, mobility.DefaultSceneConfig(), stats.NewRNG(seed))
				return New(cfg, scen, stats.NewRNG(seed+1000))
			}
			fast, scalar := build(), build()
			var hf, hs *csi.Matrix
			for step := 0; step < 40; step++ {
				tt := float64(step/2) * 0.05 // each instant twice: cached responses too
				sf := fast.MeasureInto(tt, hf)
				var ss Sample
				withoutLanes(func() { ss = scalar.MeasureInto(tt, hs) })
				hf, hs = sf.CSI, ss.CSI
				cell := fmt.Sprintf("%dx%dx%d/%v", shape.sub, shape.ntx, shape.nrx, mode)
				requireSameBits(t, cell+" lanes-vs-scalar", tt, hf, hs)
				if math.Float64bits(sf.RSSIdBm) != math.Float64bits(ss.RSSIdBm) {
					t.Fatalf("%s t=%v: RSSI %v with lanes, %v without", cell, tt, sf.RSSIdBm, ss.RSSIdBm)
				}
			}
		}
	}
}

// withoutLanes runs f with fastmath's AVX2 lanes forced off, so the
// scalar code behind SincosSlice and NormFill computes its results.
func withoutLanes(f func()) {
	probed := fastmath.LanesExact
	fastmath.LanesExact = false
	defer func() { fastmath.LanesExact = probed }()
	f()
}
