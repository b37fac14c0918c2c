// Allocation regression tests: the PHY hot path — channel response /
// measurement, CSI similarity, and the streaming classifier — must be
// allocation-free in steady state once its reusable buffers have warmed
// up. These tests pin that contract with testing.AllocsPerRun so a future
// change that reintroduces per-sample garbage fails loudly rather than
// showing up as a slow drift in the benchmarks.
package mobiwlan

import (
	"fmt"
	"testing"

	"mobiwlan/internal/beamforming"
	"mobiwlan/internal/channel"
	"mobiwlan/internal/core"
	"mobiwlan/internal/csi"
	"mobiwlan/internal/ctlproto"
	"mobiwlan/internal/fastmath"
	"mobiwlan/internal/geom"
	"mobiwlan/internal/mac"
	"mobiwlan/internal/medium"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/obs"
	"mobiwlan/internal/phy"
	"mobiwlan/internal/stats"
)

func allocScenario(t *testing.T, mode mobility.Mode) *channel.Model {
	t.Helper()
	cfg := mobility.DefaultSceneConfig()
	cfg.Duration = 600
	scen := mobility.NewScenario(mode, cfg, stats.NewRNG(7))
	return channel.New(channel.DefaultConfig(), scen, stats.NewRNG(8))
}

func TestResponseIntoAllocFree(t *testing.T) {
	ch := allocScenario(t, mobility.Macro)
	var h *csi.Matrix
	h = ch.ResponseInto(0, h) // warm up the buffer
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		i++
		h = ch.ResponseInto(float64(i)*0.01, h)
	})
	if allocs != 0 {
		t.Fatalf("ResponseInto with warm buffer: %v allocs/op, want 0", allocs)
	}
}

// TestKernelStrategiesAllocFree pins both batched-kernel strategies
// separately: a macro client moves every call (every ResponseInto miss
// runs evalDirect), while an environmental client holds still as its
// movers advance (every miss runs evalIncremental with the memoized
// prefix). Both must stay allocation-free once the per-path cache state
// has been sized.
func TestKernelStrategiesAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode mobility.Mode
	}{
		{"direct", mobility.Macro},
		{"incremental", mobility.Environmental},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ch := allocScenario(t, tc.mode)
			var h *csi.Matrix
			h = ch.ResponseInto(0, h)
			h = ch.ResponseInto(0.01, h) // build the incremental prefix
			i := 1
			allocs := testing.AllocsPerRun(100, func() {
				i++
				h = ch.ResponseInto(float64(i)*0.01, h)
			})
			if allocs != 0 {
				t.Fatalf("%s kernel with warm cache: %v allocs/op, want 0", tc.name, allocs)
			}
		})
	}
}

func TestMeasureIntoAllocFree(t *testing.T) {
	ch := allocScenario(t, mobility.Macro)
	var h *csi.Matrix
	s := ch.MeasureInto(0, h)
	h = s.CSI
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		i++
		s := ch.MeasureInto(float64(i)*0.01, h)
		h = s.CSI
	})
	if allocs != 0 {
		t.Fatalf("MeasureInto with warm buffer: %v allocs/op, want 0", allocs)
	}
}

// TestFastmathLanesAllocFree pins the four-lane transcendental entry
// points the channel hot path calls: the batched Sincos, the batched
// Box-Muller transform and the NormFill stream that drives it keep
// their scratch on the stack.
func TestFastmathLanesAllocFree(t *testing.T) {
	x := make([]float64, 131)
	u := make([]float64, len(x))
	for i := range x {
		x[i] = float64(i)*37.1 - 2000
		u[i] = (float64(i) + 0.5) / float64(len(u))
	}
	sin := make([]float64, len(x))
	cos := make([]float64, len(x))
	dst := make([]float64, 1249)
	rng := stats.NewRNG(5)
	allocs := testing.AllocsPerRun(100, func() {
		fastmath.SincosSlice(x, sin, cos)
		fastmath.NormPairs(u, x, sin, cos)
		rng.NormFill(dst, 0, 0.1)
	})
	if allocs != 0 {
		t.Fatalf("fastmath lanes: %v allocs/op, want 0", allocs)
	}
}

func TestWorkspaceSimilarityAllocFree(t *testing.T) {
	ch := allocScenario(t, mobility.Micro)
	m1 := ch.Measure(0).CSI
	m2 := ch.Measure(0.05).CSI
	var ws csi.Workspace
	ws.Similarity(m1, m2) // warm up the amplitude scratch
	allocs := testing.AllocsPerRun(100, func() {
		ws.Similarity(m1, m2)
	})
	if allocs != 0 {
		t.Fatalf("Workspace.Similarity with warm scratch: %v allocs/op, want 0", allocs)
	}
}

// TestClassifierObserveAllocFree pins the full streaming classifier: after
// the internal prevCSI copy, similarity workspace, ToF median scratch, and
// trend window have warmed up, neither ObserveCSI nor ObserveToF (including
// the per-second median flush) may allocate.
func TestClassifierObserveAllocFree(t *testing.T) {
	ch := allocScenario(t, mobility.Macro)
	cls := core.New(core.DefaultConfig())
	var h *csi.Matrix

	// Warm up: enough CSI samples to fill the similarity window and enter
	// device mobility (starting ToF collection), then enough ToF seconds to
	// size the median scratch and fill the trend window.
	tt := 0.0
	for i := 0; i < 64; i++ {
		s := ch.MeasureInto(tt, h)
		h = s.CSI
		cls.ObserveCSI(tt, s.CSI)
		tt += 0.05
	}
	for i := 0; i < 400; i++ {
		if cls.ToFActive() {
			cls.ObserveToF(tt, ch.Distance(tt)*10)
		}
		tt += 0.02
	}

	allocsCSI := testing.AllocsPerRun(100, func() {
		s := ch.MeasureInto(tt, h)
		h = s.CSI
		cls.ObserveCSI(tt, s.CSI)
		tt += 0.05
	})
	if allocsCSI != 0 {
		t.Fatalf("ObserveCSI steady state: %v allocs/op, want 0", allocsCSI)
	}

	if !cls.ToFActive() {
		t.Fatal("classifier should be collecting ToF under macro mobility")
	}
	allocsToF := testing.AllocsPerRun(100, func() {
		cls.ObserveToF(tt, ch.Distance(tt)*10)
		tt += 0.02
	})
	if allocsToF != 0 {
		t.Fatalf("ObserveToF steady state (incl. median flushes): %v allocs/op, want 0", allocsToF)
	}
}

// TestInstrumentedClassifierAllocFree repeats the classifier steady-state
// pin with telemetry enabled: metrics (counters + histograms) and a trace
// ring must add zero allocations to the hot path, not just "few".
func TestInstrumentedClassifierAllocFree(t *testing.T) {
	ch := allocScenario(t, mobility.Macro)
	scope := obs.NewScope(1024)
	cls := core.New(core.DefaultConfig())
	cls.Instrument(core.NewMetrics(scope.Registry()), scope.Tracer(0))
	var h *csi.Matrix

	tt := 0.0
	for i := 0; i < 64; i++ {
		s := ch.MeasureInto(tt, h)
		h = s.CSI
		cls.ObserveCSI(tt, s.CSI)
		tt += 0.05
	}
	for i := 0; i < 400; i++ {
		if cls.ToFActive() {
			cls.ObserveToF(tt, ch.Distance(tt)*10)
		}
		tt += 0.02
	}

	allocsCSI := testing.AllocsPerRun(100, func() {
		s := ch.MeasureInto(tt, h)
		h = s.CSI
		cls.ObserveCSI(tt, s.CSI)
		tt += 0.05
	})
	if allocsCSI != 0 {
		t.Fatalf("instrumented ObserveCSI steady state: %v allocs/op, want 0", allocsCSI)
	}
	if !cls.ToFActive() {
		t.Fatal("classifier should be collecting ToF under macro mobility")
	}
	allocsToF := testing.AllocsPerRun(100, func() {
		cls.ObserveToF(tt, ch.Distance(tt)*10)
		tt += 0.02
	})
	if allocsToF != 0 {
		t.Fatalf("instrumented ObserveToF steady state: %v allocs/op, want 0", allocsToF)
	}
	if scope.Reg.Histogram("core.similarity", 1).Count() == 0 {
		t.Fatal("similarity histogram saw no samples — instrumentation not wired")
	}
}

// TestZFWeightsIntoAllocFree pins the MU-MIMO precoder hot path: once the
// solver scratch, row buffers and weight buffer are warm, computing one
// subcarrier's zero-forcing vectors must not allocate.
func TestZFWeightsIntoAllocFree(t *testing.T) {
	rng := stats.NewRNG(6)
	mk := func() *csi.Matrix {
		m := csi.NewMatrix(52, 3, 1)
		for sc := 0; sc < 52; sc++ {
			for tx := 0; tx < 3; tx++ {
				m.Set(sc, tx, 0, complex(rng.NormFloat64(), rng.NormFloat64()))
			}
		}
		return m
	}
	a, c, d := mk(), mk(), mk()
	rows := make([][]complex128, 3)
	var solver beamforming.ZFSolver
	var w [][]complex128
	i := 0
	step := func() {
		sc := i % 52
		i++
		rows[0] = a.ColumnInto(rows[0], sc, 0)
		rows[1] = c.ColumnInto(rows[1], sc, 0)
		rows[2] = d.ColumnInto(rows[2], sc, 0)
		var ok bool
		w, ok = solver.WeightsInto(rows, w)
		if !ok {
			t.Fatal("singular precoding system in test data")
		}
	}
	step() // warm the solver scratch and weight buffers
	allocs := testing.AllocsPerRun(100, step)
	if allocs != 0 {
		t.Fatalf("WeightsInto with warm buffers: %v allocs/op, want 0", allocs)
	}
}

// TestEventHeapAllocFree pins the contended fleet's serialization point:
// once the heap's backing array has grown to the fleet size, balanced
// Push/Pop traffic must not allocate.
func TestEventHeapAllocFree(t *testing.T) {
	h := medium.NewEventHeap(8)
	for i := 0; i < 8; i++ {
		h.Push(medium.Event{T: float64(i), BSS: i % 3, Client: i})
	}
	i := 8
	allocs := testing.AllocsPerRun(100, func() {
		e := h.Pop()
		e.T = float64(i)
		i++
		h.Push(e)
	})
	if allocs != 0 {
		t.Fatalf("EventHeap Push/Pop steady state: %v allocs/op, want 0", allocs)
	}
}

// TestMediumReserveAllocFree pins the shared-medium arbitration loop: once
// the waiter queue, round scratch, pending-grant list, and interference
// scan have warmed up, a steady mix of immediate grants, deferrals,
// contention rounds, and cross-domain OBSS checks must not allocate.
func TestMediumReserveAllocFree(t *testing.T) {
	m := medium.New(medium.DefaultConfig())
	m.AddBSS(geom.Pt(0, 0), 0)
	m.AddBSS(geom.Pt(60, 0), 0) // separate co-channel domain: OBSS scan path
	for i := 0; i < 3; i++ {
		m.AddStation(stats.NewRNG(uint64(i) + 1))
	}
	// Stations 0 and 1 contend for BSS 0; station 2 runs alone in the
	// second domain, overlapping them. One step drives the mini event
	// loop by one pop/reserve/push cycle.
	h := medium.NewEventHeap(3)
	bssOf := []int{0, 0, 1}
	posOf := []geom.Point{geom.Pt(3, 0), geom.Pt(-3, 0), geom.Pt(57, 0)}
	const dur = 0.002
	for c := 0; c < 3; c++ {
		h.Push(medium.Event{T: float64(c) * dur / 2, BSS: bssOf[c], Client: c})
	}
	step := func() {
		ev := h.Pop()
		g := m.Reserve(ev.Client, bssOf[ev.Client], ev.T, dur, posOf[ev.Client])
		if !g.Granted {
			h.Push(medium.Event{T: g.RetryAt, BSS: ev.BSS, Client: ev.Client})
			return
		}
		h.Push(medium.Event{T: g.Start + dur + dur/4, BSS: ev.BSS, Client: ev.Client})
	}
	for i := 0; i < 200; i++ { // warm every internal slice
		step()
	}
	allocs := testing.AllocsPerRun(200, step)
	if allocs != 0 {
		t.Fatalf("Medium.Reserve steady state: %v allocs/op, want 0", allocs)
	}
}

// TestInstrumentedTransmitAllocFree pins the MAC frame path with metrics
// attached: Transmit must stay allocation-free once the link's channel
// buffers are warm.
func TestInstrumentedTransmitAllocFree(t *testing.T) {
	ch := allocScenario(t, mobility.Macro)
	link := mac.NewLink(ch, stats.NewRNG(9))
	link.Met = mac.NewMetrics(obs.NewRegistry())
	mcs := phy.ByIndex(7)
	link.Transmit(0, mcs, 16) // warm the sample/h0/hTau buffers
	tt := 0.01
	allocs := testing.AllocsPerRun(100, func() {
		link.Transmit(tt, mcs, 16)
		tt += 0.01
	})
	if allocs != 0 {
		t.Fatalf("instrumented Transmit steady state: %v allocs/op, want 0", allocs)
	}
	if link.Met == nil {
		t.Fatal("metrics bundle missing")
	}
}

// TestCoordinatorReportAllocFree pins the controller's per-report shard
// hot path at city scale: with a 10k-AP fleet and warm client state,
// OnMobilityReportInto must not allocate — neither on the steady-state
// (non-trigger) path nor on the throttled and mid-round macro-away
// paths. Metrics are attached so the instrumented path is what's pinned.
func TestCoordinatorReportAllocFree(t *testing.T) {
	const nAPs = 10_000
	allAPs := make([]string, nAPs)
	for i := range allAPs {
		allAPs[i] = fmt.Sprintf("ap%05d", i)
	}
	coord := ctlproto.NewCoordinator()
	coord.MaxFanout = 8
	coord.Met = ctlproto.NewMetrics(obs.NewRegistry(), nil)

	clients := make([]string, 64)
	for i := range clients {
		clients[i] = fmt.Sprintf("sta%03d", i)
	}
	var targets []string
	rep := ctlproto.MobilityReport{APID: allAPs[0], RSSIdBm: -60}
	// Warm up: create every client's state, and open one measurement
	// round so the loop also walks the measuring early-return path.
	for _, c := range clients {
		rep.Client = c
		rep.State = core.StateStatic
		targets = coord.OnMobilityReportInto(&rep, allAPs, targets)
	}
	rep.Client = clients[0]
	rep.State = core.StateMacroAway
	rep.Time = 100
	targets = coord.OnMobilityReportInto(&rep, allAPs, targets)
	if len(targets) != 8 {
		t.Fatalf("warm-up round opened with %d targets, want 8", len(targets))
	}

	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		rep.Client = clients[i%len(clients)]
		rep.Time = 100 + float64(i)
		if i%3 == 0 {
			// clients[0] is mid-round: macro-away returns early; for the
			// rest this is a throttle-or-open round on the warm buffer.
			rep.State = core.StateMacroAway
		} else {
			rep.State = core.StateStatic
		}
		targets = coord.OnMobilityReportInto(&rep, allAPs, targets)
	})
	if allocs != 0 {
		t.Fatalf("OnMobilityReportInto at 10k APs: %v allocs/op, want 0", allocs)
	}
}

// TestDeltaDecoderApplyAllocFree pins the batch-expansion side of the
// report hot path: with a warm client table, applying snapshots and
// deltas must not allocate per entry.
func TestDeltaDecoderApplyAllocFree(t *testing.T) {
	var dec ctlproto.DeltaDecoder
	var out ctlproto.MobilityReport
	clients := make([]string, 64)
	for i := range clients {
		clients[i] = fmt.Sprintf("sta%03d", i)
		e := ctlproto.BatchEntry{Client: clients[i], Snap: true, S: 2, T: int64(i), R: -6000}
		if err := dec.Apply("ap1", &e, &out); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		e := ctlproto.BatchEntry{Client: clients[i%len(clients)], T: 1000, R: 3}
		if i%16 == 0 {
			// Re-snapshots of known clients ride the same path.
			e.Snap = true
			e.S = 3
			e.T = int64(i) * 1000
		}
		if err := dec.Apply("ap1", &e, &out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DeltaDecoder.Apply with warm table: %v allocs/op, want 0", allocs)
	}
}
