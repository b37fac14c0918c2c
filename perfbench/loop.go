package main

import (
	"fmt"
	"math"
	"sort"

	"mobiwlan/internal/aggregation"
	"mobiwlan/internal/channel"
	"mobiwlan/internal/core"
	"mobiwlan/internal/csi"
	"mobiwlan/internal/mac"
	"mobiwlan/internal/medium"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/phy"
	"mobiwlan/internal/ratecontrol"
	"mobiwlan/internal/roaming"
	"mobiwlan/internal/scenario"
	"mobiwlan/internal/sim"
	"mobiwlan/internal/stats"
	"mobiwlan/internal/tof"
	"mobiwlan/internal/transport"
)

// This file is the benchmark's copy of sim's per-client loop (wlan.go)
// and of its contended event loop (contend.go), written against public
// layer calls only, with a span around each call. The copy must
// reproduce sim's per-client results exactly for the same seed —
// checked by compareFleet on every traced run — which is what lets
// timing taken from outside the program stand for the program's own
// work.

// loopConsts are the loop's fixed timers, as in sim: the roaming tick,
// the idle step when the source has no demand, and the ToF sample
// period. Tests change them to prove that compareFleet catches a copy
// that drifts from sim.
type loopConsts struct {
	tick, idleStep, tofPeriod float64
}

var simConsts = loopConsts{tick: 0.1, idleStep: 1e-3, tofPeriod: 0.02}

// tlink is the copy's MAC link: mac.Link's settings and buffers, with
// Transmit re-expressed from channel, csi and phy calls.
type tlink struct {
	ch        *channel.Model
	rng       *stats.RNG
	timing    phy.Timing
	width     phy.ChannelWidth
	sgi       bool
	mpduBytes int

	sampleCSI, h0, hTau *csi.Matrix
}

func newTLink(ch *channel.Model, rng *stats.RNG) *tlink {
	def := mac.NewLink(ch, nil) // only for the default PHY settings
	return &tlink{ch: ch, rng: rng, timing: def.Timing, width: def.Width, sgi: def.SGI, mpduBytes: def.MPDUBytes}
}

// transmit is mac.Link.Transmit with spans.
func (l *tlink) transmit(tr *tracer, t float64, mcs phy.MCS, nMPDU int) mac.FrameResult {
	if nMPDU < 1 {
		nMPDU = 1
	}
	sp := tr.begin(bChannelMeasure)
	sample := l.ch.MeasureInto(t, l.sampleCSI)
	tr.end(sp)
	l.sampleCSI = sample.CSI
	sp = tr.begin(bPHYErrorModel)
	effSNR := phy.EffectiveSNRdB(sample.CSI, sample.SNRdB)
	tr.end(sp)
	sp = tr.begin(bPHYAirtime)
	airtime := phy.ExchangeAirtime(l.timing, mcs, l.width, l.sgi, nMPDU*l.mpduBytes, nMPDU)
	payloadDur := phy.PayloadDuration(mcs, l.width, l.sgi, nMPDU*l.mpduBytes, nMPDU)
	tr.end(sp)
	res := mac.FrameResult{Start: t, MCS: mcs, NMPDU: nMPDU, Airtime: airtime, EffSNRdB: effSNR, CSI: sample.CSI}

	sp = tr.begin(bChannelResponse)
	l.h0 = l.ch.ResponseInto(t, l.h0)
	tr.end(sp)
	const anchors = 5
	var rhoAt [anchors]float64
	rhoAt[0] = 1
	for a := 1; a < anchors; a++ {
		tau := payloadDur * float64(a) / float64(anchors-1)
		sp = tr.begin(bChannelResponse)
		l.hTau = l.ch.ResponseInto(t+l.timing.PLCPPreamble+tau, l.hTau)
		tr.end(sp)
		sp = tr.begin(bCSICorrelation)
		rhoAt[a] = csi.TemporalCorrelation(l.h0, l.hTau)
		tr.end(sp)
	}
	sp = tr.begin(bPHYErrorModel)
	for k := 0; k < nMPDU; k++ {
		frac := (float64(k) + 0.5) / float64(nMPDU) * float64(anchors-1)
		lo := int(frac)
		if lo >= anchors-1 {
			lo = anchors - 2
		}
		w := frac - float64(lo)
		rho := rhoAt[lo]*(1-w) + rhoAt[lo+1]*w
		per := phy.PER(mcs, phy.StaleSINRdB(effSNR, rho), l.mpduBytes)
		if !l.rng.Bool(per) {
			res.Delivered++
		}
	}
	tr.end(sp)
	res.BlockAck = res.Delivered > 0
	return res
}

// tclient is sim's per-client protocol stack, copied.
type tclient struct {
	k    loopConsts
	tr   *tracer
	scen *mobility.Scenario
	src  transport.Source

	motionAware           bool
	handoffCost, scanCost float64

	links []*tlink
	apIdx []int

	aggPol  aggregation.Policy
	roamPol roaming.Policy
	cls     *core.Classifier
	adapter ratecontrol.Adapter
	meter   *tof.Meter
	trends  []*tof.TrendDetector
	filters []*stats.MedianFilter

	medRNG        *stats.RNG
	noiseFloorDBm float64

	cur                                   int
	t, bits, busyUntil                    float64
	scanPending                           bool
	nextCSI, nextToF, nextTick, lastFlush float64
	csiBuf                                *csi.Matrix
	infraRSSI                             []float64
	approaching                           []bool
	pendMCS                               phy.MCS
	pendN                                 int
	pendDur                               float64
	mpdu                                  sim.MPDUCounts
	handoffs, scans                       int
}

// newTClient builds the stack the way sim does for plan, seed and the
// global AP indices apIdx (nil means identity).
func newTClient(k loopConsts, tr *tracer, scen *mobility.Scenario, motionAware bool, plan roaming.Plan, seed uint64, apIdx []int) *tclient {
	w := sim.DefaultWLANOptions(motionAware)
	rng := stats.NewRNG(seed)
	nAP := len(plan.APs)
	if apIdx == nil {
		apIdx = make([]int, nAP)
		for i := range apIdx {
			apIdx[i] = i
		}
	}
	c := &tclient{
		k: k, tr: tr, scen: scen, src: transport.Saturated{},
		motionAware: motionAware, handoffCost: w.HandoffCost, scanCost: w.ScanCost,
		links: make([]*tlink, nAP), apIdx: apIdx,
		medRNG: rng.Split(888), noiseFloorDBm: plan.Channel.NoiseFloorDBm,
		busyUntil: -1, infraRSSI: make([]float64, nAP), approaching: make([]bool, nAP),
	}
	for i, ap := range plan.APs {
		gi := uint64(apIdx[i])
		c.links[i] = newTLink(channel.NewAt(plan.Channel, ap, scen, rng.Split(gi+1)), rng.Split(gi+100))
	}
	c.aggPol = aggregation.Fixed{Limit: 4e-3}
	c.roamPol = roaming.NewDefault80211()
	if motionAware {
		c.aggPol = aggregation.Adaptive{}
		c.roamPol = roaming.NewMobilityAware()
	}
	c.cls = core.New(core.DefaultConfig())
	c.meter = tof.NewMeter(tof.DefaultConfig(), rng.Split(777))
	c.trends = make([]*tof.TrendDetector, nAP)
	c.filters = make([]*stats.MedianFilter, nAP)
	for i := range c.trends {
		c.trends[i] = tof.NewTrendDetector(3, 0, 0.8)
		c.filters[i] = &stats.MedianFilter{}
	}
	best := -1e18
	for i, l := range c.links {
		if v := l.ch.MeanRSSI(0); v > best {
			c.cur, best = i, v
		}
	}
	c.adapter = c.newAdapter()
	return c
}

func (c *tclient) newAdapter() ratecontrol.Adapter {
	if c.motionAware {
		return ratecontrol.NewMobilityAware(ratecontrol.DefaultLinkConfig())
	}
	return ratecontrol.NewAtheros(ratecontrol.DefaultLinkConfig())
}

// advance is sim's wlanClient.advance with spans: it runs the control
// loop until a frame is pending (false) or the scenario ends (true).
func (c *tclient) advance() bool {
	tr := c.tr
	for c.t < c.scen.Duration {
		t := c.t
		for c.nextCSI <= t {
			sp := tr.begin(bChannelMeasure)
			s := c.links[c.cur].ch.MeasureInto(c.nextCSI, c.csiBuf)
			tr.end(sp)
			c.csiBuf = s.CSI
			sp = tr.begin(bCoreClassifier)
			c.cls.ObserveCSI(c.nextCSI, s.CSI)
			tr.end(sp)
			c.nextCSI += c.cls.Config().CSISamplePeriod
		}
		for c.nextToF <= t {
			if c.cls.ToFActive() {
				sp := tr.begin(bToFTrack)
				raw := c.meter.Raw(c.links[c.cur].ch.Distance(c.nextToF))
				tr.end(sp)
				sp = tr.begin(bCoreClassifier)
				c.cls.ObserveToF(c.nextToF, raw)
				tr.end(sp)
			}
			sp := tr.begin(bToFTrack)
			for i := range c.links {
				c.filters[i].Add(c.meter.Raw(c.links[i].ch.Distance(c.nextToF)))
			}
			tr.end(sp)
			c.nextToF += c.k.tofPeriod
		}
		if t-c.lastFlush >= 1 {
			c.lastFlush = t
			sp := tr.begin(bToFTrack)
			for i := range c.links {
				if med, ok := c.filters[i].Flush(); ok {
					c.trends[i].Push(med)
				}
			}
			tr.end(sp)
		}

		if t >= c.nextTick {
			c.nextTick = t + c.k.tick
			view := roaming.Observation{
				T: t, Cur: c.cur, InfraRSSI: c.infraRSSI, State: c.cls.State(), Approaching: c.approaching,
			}
			for i, l := range c.links {
				sp := tr.begin(bChannelMeasure)
				s := l.ch.MeasureInto(t, c.csiBuf)
				tr.end(sp)
				c.csiBuf = s.CSI
				view.InfraRSSI[i] = s.RSSIdBm
				sp = tr.begin(bToFTrack)
				view.Approaching[i] = c.trends[i].Trend() == stats.TrendDecreasing
				tr.end(sp)
			}
			view.CurRSSI = view.InfraRSSI[c.cur]
			if c.scanPending && t >= c.busyUntil {
				view.ScanRSSI = view.InfraRSSI
				view.ScanValid = true
				c.scanPending = false
			}
			sp := tr.begin(bRoamingDecide)
			act := c.roamPol.Decide(view)
			tr.end(sp)
			if act.StartScan && t >= c.busyUntil {
				c.busyUntil = t + c.scanCost
				c.scanPending = true
				c.scans++
			}
			if act.RoamTo >= 0 && act.RoamTo != c.cur && t >= c.busyUntil {
				c.cur = act.RoamTo
				c.busyUntil = t + c.handoffCost
				c.handoffs++
				c.cls = core.New(core.DefaultConfig())
				c.adapter = c.newAdapter()
			}
		}

		if c.t < c.busyUntil {
			c.t = c.busyUntil
			continue
		}

		state := core.StateUnknown
		link := c.links[c.cur]
		sp := tr.begin(bRateAdapt)
		if c.motionAware {
			state = c.cls.State()
			if sa, ok := c.adapter.(ratecontrol.StateAware); ok {
				sa.SetState(state)
			}
		}
		mcs := c.adapter.SelectRate(c.t)
		tr.end(sp)
		sp = tr.begin(bAggregation)
		maxN := aggregation.MPDUs(c.aggPol, state, mcs, link.width, link.sgi, link.mpduBytes)
		tr.end(sp)
		n := c.src.Demand(c.t, maxN)
		if n <= 0 {
			c.t += c.k.idleStep
			continue
		}
		c.pendMCS, c.pendN = mcs, n
		sp = tr.begin(bPHYAirtime)
		c.pendDur = phy.ExchangeAirtime(link.timing, mcs, link.width, link.sgi, n*link.mpduBytes, n)
		tr.end(sp)
		return false
	}
	return true
}

// transmit is sim's wlanClient.transmit with spans.
func (c *tclient) transmit(start float64, collided bool, interfDBm, overlapFrac float64) {
	tr := c.tr
	link := c.links[c.cur]
	fr := link.transmit(tr, start, c.pendMCS, c.pendN)
	c.mpdu.Offered += uint64(fr.NMPDU)
	if collided {
		c.mpdu.CollisionLost += uint64(fr.NMPDU)
		fr.Delivered = 0
		fr.BlockAck = false
	} else {
		c.mpdu.PERLost += uint64(fr.NMPDU - fr.Delivered)
		if interfDBm != medium.NoInterference && fr.Delivered > 0 {
			sp := tr.begin(bPHYErrorModel)
			sinrI := phy.SINRWithInterferenceDB(fr.EffSNRdB, c.noiseFloorDBm, interfDBm)
			q := overlapFrac * phy.PER(fr.MCS, sinrI, link.mpduBytes)
			kept := 0
			for k := 0; k < fr.Delivered; k++ {
				if !c.medRNG.Bool(q) {
					kept++
				}
			}
			tr.end(sp)
			c.mpdu.OBSSLost += uint64(fr.Delivered - kept)
			fr.Delivered = kept
			fr.BlockAck = kept > 0
		}
		c.mpdu.Delivered += uint64(fr.Delivered)
	}
	sp := tr.begin(bRateAdapt)
	c.adapter.OnResult(start+fr.Airtime, fr)
	tr.end(sp)
	c.src.OnDelivery(start+fr.Airtime, fr.NMPDU, fr.Delivered, fr.BlockAck)
	c.bits += fr.Goodput(link.mpduBytes)
	c.t = start + fr.Airtime
}

func (c *tclient) result() sim.WLANResult {
	r := sim.WLANResult{Handoffs: c.handoffs, Scans: c.scans}
	if c.scen.Duration > 0 {
		r.Mbps = c.bits / c.scen.Duration / 1e6
	}
	return r
}

// tracedFleet is the outcome of one traced pass.
type tracedFleet struct {
	per     []sim.WLANResult
	mpdu    []sim.MPDUCounts
	cache   channel.CacheStats
	clientS float64
}

// runTracedFleet rebuilds the workload's first fleet from scenario.Build
// and drives it through the loop copy: client by client when
// uncontended, through the copied shared-medium event loop when
// contended.
func runTracedFleet(k loopConsts, tr *tracer, w fleetWorkload, spec *scenario.Spec) (tracedFleet, error) {
	sp := tr.begin(bScenarioBuild)
	clients, err := scenario.Build(spec, w.deployment(), w.draws[0])
	tr.end(sp)
	if err != nil {
		return tracedFleet{}, err
	}
	out := tracedFleet{clientS: float64(spec.Total) * spec.DurationS}
	tcs := make([]*tclient, len(clients))
	if !w.opt.Contend {
		plan := roaming.DefaultPlan()
		for i, bc := range clients {
			tr.setTrace(i + 1)
			root := tr.begin(bSimLoop)
			c := newTClient(k, tr, bc.Scen, bc.MotionAware, plan, bc.SimSeed, nil)
			for !c.advance() {
				c.transmit(c.t, false, medium.NoInterference, 0)
			}
			tr.end(root)
			tcs[i] = c
		}
	} else {
		runTracedContended(k, tr, w, clients, tcs)
	}
	for _, c := range tcs {
		out.per = append(out.per, c.result())
		out.mpdu = append(out.mpdu, c.mpdu)
		for _, l := range c.links {
			cs := l.ch.CacheStats()
			out.cache.Hits += cs.Hits
			out.cache.Misses += cs.Misses
			out.cache.PathEvals += cs.PathEvals
			out.cache.PathReuses += cs.PathReuses
		}
	}
	return out, nil
}

// runTracedContended is sim's contended runner, copied: grid plan,
// round-robin channels, each client's links capped to its MaxAPs nearest
// APs, and the serial event loop over one shared medium.
func runTracedContended(k loopConsts, tr *tracer, w fleetWorkload, clients []scenario.Client, tcs []*tclient) {
	opt := w.opt
	plan := roaming.GridPlan(opt.APs)
	const numChannels = 3 // sim's default when FleetOptions.NumChannels is 0
	tr.setTrace(0)
	root := tr.begin(bSimLoop)
	sp := tr.begin(bMediumNew)
	mcfg := medium.DefaultConfig()
	mcfg.TxPowerDBm = plan.Channel.TxPowerDBm
	mcfg.NoiseFloorDBm = plan.Channel.NoiseFloorDBm
	mcfg.CarrierHz = plan.Channel.CarrierHz
	mcfg.PathLossExponent = plan.Channel.PathLossExponent
	mcfg.PathLossBreakM = plan.Channel.PathLossBreakM
	med := medium.New(mcfg)
	for i, ap := range plan.APs {
		med.AddBSS(ap, i%numChannels)
	}
	h := medium.NewEventHeap(len(clients))
	tr.end(sp)

	for i, bc := range clients {
		tr.setTrace(i + 1)
		apIdx := nearestAPs(plan, bc.HomeAP, opt.MaxAPs)
		sub := roaming.Plan{Channel: plan.Channel}
		for _, gi := range apIdx {
			sub.APs = append(sub.APs, plan.APs[gi])
		}
		c := newTClient(k, tr, bc.Scen, bc.MotionAware, sub, bc.SimSeed, apIdx)
		med.AddStation(c.medRNG)
		tcs[i] = c
		if !c.advance() {
			sp := tr.begin(bMediumHeap)
			h.Push(medium.Event{T: c.t, BSS: c.apIdx[c.cur], Client: i})
			tr.end(sp)
		}
	}
	for h.Len() > 0 {
		sp := tr.begin(bMediumHeap)
		ev := h.Pop()
		tr.end(sp)
		c := tcs[ev.Client]
		tr.setTrace(ev.Client + 1)
		bss := c.apIdx[c.cur]
		sp = tr.begin(bMediumReserve)
		g := med.Reserve(ev.Client, bss, ev.T, c.pendDur, c.scen.Client.At(ev.T))
		tr.end(sp)
		if !g.Granted {
			sp = tr.begin(bMediumHeap)
			h.Push(medium.Event{T: g.RetryAt, BSS: bss, Client: ev.Client})
			tr.end(sp)
			continue
		}
		c.transmit(g.Start, g.Collided, g.InterfDBm, g.OverlapFrac)
		if !c.advance() {
			sp = tr.begin(bMediumHeap)
			h.Push(medium.Event{T: c.t, BSS: c.apIdx[c.cur], Client: ev.Client})
			tr.end(sp)
		}
	}
	tr.setTrace(0)
	tr.end(root)
}

// nearestAPs is sim's AP-subset rule: the k APs nearest the home AP,
// ties broken by index, returned in ascending global index.
func nearestAPs(plan roaming.Plan, home, k int) []int {
	n := len(plan.APs)
	if k <= 0 || k > n {
		k = n
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	hp := plan.APs[home]
	sort.Slice(idx, func(a, b int) bool {
		da, db := plan.APs[idx[a]].Dist(hp), plan.APs[idx[b]].Dist(hp)
		if da != db {
			return da < db
		}
		return idx[a] < idx[b]
	})
	sub := idx[:k]
	sort.Ints(sub)
	return sub
}

// compareFleet checks the copy against sim: per-client goodput (bit for
// bit), handoffs and scans, and on contended runs the per-client MPDU
// counts.
func compareFleet(want []sim.ClientResult, wantMPDU []sim.MPDUCounts, got tracedFleet) []string {
	var bad []string
	if len(want) != len(got.per) {
		return []string{fmt.Sprintf("copy ran %d clients, sim %d", len(got.per), len(want))}
	}
	for i, wr := range want {
		g := got.per[i]
		if math.Float64bits(g.Mbps) != math.Float64bits(wr.Mbps) || g.Handoffs != wr.Handoffs || g.Scans != wr.Scans {
			bad = append(bad, fmt.Sprintf("client %d: copy %+v, sim %+v", i, g, wr.WLANResult))
		}
	}
	for i, m := range wantMPDU {
		if got.mpdu[i] != m {
			bad = append(bad, fmt.Sprintf("client %d: copy MPDUs %+v, sim %+v", i, got.mpdu[i], m))
		}
	}
	return bad
}
