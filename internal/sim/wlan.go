package sim

import (
	"mobiwlan/internal/aggregation"
	"mobiwlan/internal/channel"
	"mobiwlan/internal/core"
	"mobiwlan/internal/csi"
	"mobiwlan/internal/geom"
	"mobiwlan/internal/mac"
	"mobiwlan/internal/medium"
	"mobiwlan/internal/mobility"
	"mobiwlan/internal/obs"
	"mobiwlan/internal/phy"
	"mobiwlan/internal/ratecontrol"
	"mobiwlan/internal/roaming"
	"mobiwlan/internal/stats"
	"mobiwlan/internal/tof"
	"mobiwlan/internal/transport"
)

// WLANOptions configures the multi-AP end-to-end simulation (paper §7).
type WLANOptions struct {
	// Plan is the AP deployment.
	Plan roaming.Plan
	// MotionAware enables the paper's full stack: mobility-aware rate
	// control, adaptive aggregation, and controller-based roaming, all
	// driven by the classifier. When false the stack is the mobility-
	// oblivious default: stock Atheros RA, fixed 4 ms aggregation, and
	// the client's RSSI-threshold roaming.
	MotionAware bool
	// Source is the traffic source (nil means saturated UDP, matching the
	// paper's iperf UDP tests).
	Source transport.Source
	// HandoffCost is the association gap in seconds.
	HandoffCost float64
	// ScanCost is the client's off-channel scan time.
	ScanCost float64
	// Obs, when non-nil, collects classifier, MAC, rate-control, and
	// handoff telemetry; Trial keys the per-trial tracer (distinct
	// concurrent trials must use distinct keys).
	Obs   *obs.Scope
	Trial int
}

// DefaultWLANOptions returns the Fig. 13 setting.
func DefaultWLANOptions(motionAware bool) WLANOptions {
	return WLANOptions{
		Plan:        roaming.DefaultPlan(),
		MotionAware: motionAware,
		HandoffCost: 0.2,
		ScanCost:    0.06,
	}
}

// WLANResult summarizes an end-to-end run.
type WLANResult struct {
	// Mbps is the end-to-end goodput over the whole run.
	Mbps float64
	// Handoffs counts association changes.
	Handoffs int
	// Scans counts client scans.
	Scans int
}

// MPDUCounts reconciles a client's offered load with its loss causes. The
// conservation law tested by the contention suite:
// Offered == Delivered + PERLost + CollisionLost + OBSSLost.
type MPDUCounts struct {
	// Offered counts every MPDU handed to the MAC.
	Offered uint64
	// Delivered counts MPDUs acknowledged end to end.
	Delivered uint64
	// PERLost counts MPDUs lost to the channel error model.
	PERLost uint64
	// CollisionLost counts MPDUs lost to CSMA/CA backoff collisions.
	CollisionLost uint64
	// OBSSLost counts MPDUs lost to co-channel interference from another
	// contention domain.
	OBSSLost uint64
}

// wlanClient is one client's full protocol stack (channels, MAC links,
// classifier, ToF trend detection, rate control, aggregation, roaming,
// traffic source) as a resumable state machine. advance() runs the control
// loop until a frame is ready; transmit() sends it at a (possibly
// deferred) start time. RunWLAN alternates the two back to back, which
// reproduces the original single-loop simulation draw for draw; the
// contended fleet driver interleaves many clients through a shared medium
// between the two calls.
type wlanClient struct {
	scen *mobility.Scenario
	opt  WLANOptions
	src  transport.Source

	links []*mac.Link
	apIdx []int // global AP index per link (identity when no subsetting)

	handoffs, scans *obs.Counter
	tr              *obs.Tracer

	newAdapter func() ratecontrol.Adapter
	newCls     func() *core.Classifier
	aggPol     aggregation.Policy
	roamPol    roaming.Policy

	cls     *core.Classifier
	adapter ratecontrol.Adapter
	meter   *tof.Meter
	trends  []*tof.TrendDetector
	filters []*stats.MedianFilter

	// medRNG is a dedicated split for medium-level draws (OBSS interference
	// survival); it never perturbs the frame/channel RNG streams, which is
	// what keeps contended and uncontended single-client runs bit-identical.
	medRNG        *stats.RNG
	noiseFloorDBm float64

	cur         int
	t           float64
	bits        float64
	busyUntil   float64
	scanPending bool
	nextCSI     float64
	nextToF     float64
	nextTick    float64
	lastFlush   float64
	csiBuf      *csi.Matrix
	// infraRSSI/approaching back the per-tick roaming Observation. The
	// policies consume the slices inside Decide and never retain them
	// (roaming.go), so one pair per client replaces two allocations per
	// roaming tick.
	infraRSSI   []float64
	approaching []bool

	// Pending frame between advance() and transmit().
	pendMCS phy.MCS
	pendN   int
	pendDur float64

	mpdu MPDUCounts
	res  WLANResult
}

// newWLANClient builds the stack. apIdx maps each plan AP to its global
// index in the full deployment; nil means identity. RNG splits are keyed
// by the global index so a client simulated against a nearby subset of a
// large plan sees the same channel randomness it would against the full
// plan.
func newWLANClient(scen *mobility.Scenario, opt WLANOptions, seed uint64, apIdx []int) *wlanClient {
	rng := stats.NewRNG(seed)
	nAP := len(opt.Plan.APs)
	if apIdx == nil {
		apIdx = make([]int, nAP)
		for i := range apIdx {
			apIdx[i] = i
		}
	}
	c := &wlanClient{
		scen:          scen,
		opt:           opt,
		apIdx:         apIdx,
		links:         make([]*mac.Link, nAP),
		medRNG:        rng.Split(888),
		noiseFloorDBm: opt.Plan.Channel.NoiseFloorDBm,
		busyUntil:     -1,
		infraRSSI:     make([]float64, nAP),
		approaching:   make([]bool, nAP),
	}
	for i, ap := range opt.Plan.APs {
		gi := uint64(apIdx[i])
		ch := channel.NewAt(opt.Plan.Channel, ap, scen, rng.Split(gi+1))
		c.links[i] = mac.NewLink(ch, rng.Split(gi+100))
	}
	c.src = opt.Source
	if c.src == nil {
		c.src = transport.Saturated{}
	}

	// Telemetry (all sinks nil-safe when opt.Obs is nil).
	reg := opt.Obs.Registry()
	c.tr = opt.Obs.Tracer(opt.Trial)
	c.handoffs = reg.Counter("sim.wlan.handoffs")
	c.scans = reg.Counter("sim.wlan.scans")
	clsMet := core.NewMetrics(reg)
	macMet := mac.NewMetrics(reg)
	rcMet := ratecontrol.NewMetrics(reg)
	for _, l := range c.links {
		l.Met = macMet
	}

	c.newAdapter = func() ratecontrol.Adapter {
		if opt.MotionAware {
			ma := ratecontrol.NewMobilityAware(ratecontrol.DefaultLinkConfig())
			ma.Instrument(rcMet, c.tr)
			return ma
		}
		return ratecontrol.NewAtheros(ratecontrol.DefaultLinkConfig())
	}
	c.aggPol = aggregation.Fixed{Limit: 4e-3}
	c.roamPol = roaming.NewDefault80211()
	if opt.MotionAware {
		c.aggPol = aggregation.Adaptive{}
		c.roamPol = roaming.NewMobilityAware()
	}
	c.newCls = func() *core.Classifier {
		cl := core.New(core.DefaultConfig())
		cl.Instrument(clsMet, c.tr)
		return cl
	}

	// Controller instrumentation: classifier on the current AP, per-AP
	// ToF trend detection for candidate headings.
	c.cls = c.newCls()
	c.meter = tof.NewMeter(tof.DefaultConfig(), rng.Split(777))
	c.trends = make([]*tof.TrendDetector, nAP)
	c.filters = make([]*stats.MedianFilter, nAP)
	for i := range c.trends {
		c.trends[i] = tof.NewTrendDetector(3, 0, 0.8)
		c.filters[i] = &stats.MedianFilter{}
	}

	// Initial association: strongest AP.
	bestRSSI := -1e18
	for i, l := range c.links {
		if v := l.Chan.MeanRSSI(0); v > bestRSSI {
			c.cur, bestRSSI = i, v
		}
	}
	c.adapter = c.newAdapter()
	return c
}

// curBSS returns the global AP index the client is associated to.
func (c *wlanClient) curBSS() int { return c.apIdx[c.cur] }

// pos returns the client position at time t.
func (c *wlanClient) pos(t float64) geom.Point { return c.scen.Client.At(t) }

// advance runs the control loop — measurement catch-up, roaming ticks,
// rate selection, traffic demand — until a frame is ready to transmit
// (returns false; pendMCS/pendN/pendDur describe it) or the scenario ends
// (returns true).
func (c *wlanClient) advance() bool {
	const tick = 0.1
	const idleStep = 1e-3
	for c.t < c.scen.Duration {
		t := c.t
		for c.nextCSI <= t {
			s := c.links[c.cur].Chan.MeasureInto(c.nextCSI, c.csiBuf)
			c.csiBuf = s.CSI
			c.cls.ObserveCSI(c.nextCSI, s.CSI)
			c.nextCSI += c.cls.Config().CSISamplePeriod
		}
		for c.nextToF <= t {
			if c.cls.ToFActive() {
				c.cls.ObserveToF(c.nextToF, c.meter.Raw(c.links[c.cur].Chan.Distance(c.nextToF)))
			}
			for i := range c.links {
				c.filters[i].Add(c.meter.Raw(c.links[i].Chan.Distance(c.nextToF)))
			}
			c.nextToF += 0.02
		}
		if t-c.lastFlush >= 1 {
			c.lastFlush = t
			for i := range c.links {
				if med, ok := c.filters[i].Flush(); ok {
					c.trends[i].Push(med)
				}
			}
		}

		// Roaming decisions on the tick boundary. The current AP is
		// measured once, inside the loop over all APs: it used to get an
		// extra MeasureInto just to fill CurRSSI, which both did double
		// work and advanced its noise RNG by one extra draw sequence per
		// tick.
		if t >= c.nextTick {
			c.nextTick = t + tick
			view := roaming.Observation{
				T:           t,
				Cur:         c.cur,
				InfraRSSI:   c.infraRSSI,
				State:       c.cls.State(),
				Approaching: c.approaching,
			}
			for i, l := range c.links {
				s := l.Chan.MeasureInto(t, c.csiBuf)
				c.csiBuf = s.CSI
				view.InfraRSSI[i] = s.RSSIdBm
				view.Approaching[i] = c.trends[i].Trend() == stats.TrendDecreasing
			}
			view.CurRSSI = view.InfraRSSI[c.cur]
			if c.scanPending && t >= c.busyUntil {
				view.ScanRSSI = view.InfraRSSI
				view.ScanValid = true
				c.scanPending = false
			}
			act := c.roamPol.Decide(view)
			if act.StartScan && t >= c.busyUntil {
				c.busyUntil = t + c.opt.ScanCost
				c.scanPending = true
				c.res.Scans++
				c.scans.Inc()
				c.tr.Emit(t, "sim", "scan", float64(c.cur), 0, "")
			}
			if act.RoamTo >= 0 && act.RoamTo != c.cur && t >= c.busyUntil {
				c.tr.Emit(t, "sim", "handoff", float64(c.cur), float64(act.RoamTo), core.StateLabel(view.State))
				c.cur = act.RoamTo
				c.busyUntil = t + c.opt.HandoffCost
				c.res.Handoffs++
				c.handoffs.Inc()
				c.cls = c.newCls()
				c.adapter = c.newAdapter()
			}
		}

		if c.t < c.busyUntil {
			c.t = c.busyUntil
			continue
		}

		state := core.StateUnknown
		if c.opt.MotionAware {
			state = c.cls.State()
			if sa, ok := c.adapter.(ratecontrol.StateAware); ok {
				sa.SetState(state)
			}
		}
		link := c.links[c.cur]
		mcs := c.adapter.SelectRate(c.t)
		maxN := aggregation.MPDUs(c.aggPol, state, mcs, link.Width, link.SGI, link.MPDUBytes)
		n := c.src.Demand(c.t, maxN)
		if n <= 0 {
			c.t += idleStep
			continue
		}
		c.pendMCS, c.pendN = mcs, n
		// ExchangeAirtime is deterministic in (MCS, n), so the frame's
		// duration — what the medium must be asked for — is known before
		// Transmit draws any randomness.
		c.pendDur = phy.ExchangeAirtime(link.Timing, mcs, link.Width, link.SGI, n*link.MPDUBytes, n)
		return false
	}
	return true
}

// transmit sends the pending frame at start (>= the time advance stopped
// at; later when the medium deferred the client). A collided frame loses
// every MPDU. A frame overlapped by a co-channel transmission from another
// contention domain (interfDBm != medium.NoInterference) passes each
// channel-delivered MPDU through an interference survival draw from the
// client's medium RNG split: drop probability is the overlap fraction
// times the PER at the interference-degraded SINR.
func (c *wlanClient) transmit(start float64, collided bool, interfDBm, overlapFrac float64) {
	link := c.links[c.cur]
	fr := link.Transmit(start, c.pendMCS, c.pendN)
	c.mpdu.Offered += uint64(fr.NMPDU)
	if collided {
		c.mpdu.CollisionLost += uint64(fr.NMPDU)
		fr.Delivered = 0
		fr.BlockAck = false
	} else {
		c.mpdu.PERLost += uint64(fr.NMPDU - fr.Delivered)
		if interfDBm != medium.NoInterference && fr.Delivered > 0 {
			sinrI := phy.SINRWithInterferenceDB(fr.EffSNRdB, c.noiseFloorDBm, interfDBm)
			q := overlapFrac * phy.PER(fr.MCS, sinrI, link.MPDUBytes)
			kept := 0
			for k := 0; k < fr.Delivered; k++ {
				if !c.medRNG.Bool(q) {
					kept++
				}
			}
			c.mpdu.OBSSLost += uint64(fr.Delivered - kept)
			fr.Delivered = kept
			fr.BlockAck = kept > 0
		}
		c.mpdu.Delivered += uint64(fr.Delivered)
	}
	c.adapter.OnResult(start+fr.Airtime, fr)
	c.src.OnDelivery(start+fr.Airtime, fr.NMPDU, fr.Delivered, fr.BlockAck)
	c.bits += fr.Goodput(link.MPDUBytes)
	c.t = start + fr.Airtime
}

// result finalizes and returns the run summary. Called once per client,
// when it finishes, which is also when the client's channel-cache
// counters are published.
func (c *wlanClient) result() WLANResult {
	if c.scen.Duration > 0 {
		c.res.Mbps = c.bits / c.scen.Duration / 1e6
	}
	c.publishCacheStats()
	return c.res
}

// publishCacheStats adds every link's channel response-cache counters
// (channel.Model.CacheStats) into the channel.cache.* obs counters. The
// sums commute, so the totals are the same at any -jobs.
func (c *wlanClient) publishCacheStats() {
	reg := c.opt.Obs.Registry()
	if reg == nil {
		return
	}
	var sum channel.CacheStats
	for _, l := range c.links {
		s := l.Chan.CacheStats()
		sum.Hits += s.Hits
		sum.Misses += s.Misses
		sum.PathEvals += s.PathEvals
		sum.PathReuses += s.PathReuses
	}
	reg.Counter("channel.cache.hits").Add(sum.Hits)
	reg.Counter("channel.cache.misses").Add(sum.Misses)
	reg.Counter("channel.cache.path_evals").Add(sum.PathEvals)
	reg.Counter("channel.cache.path_reuses").Add(sum.PathReuses)
}

// RunWLAN simulates a client moving through the WLAN with the full
// protocol stack at frame granularity, with the medium to itself: every
// frame transmits the moment it is ready (the airtime model already
// charges mean backoff and DIFS per exchange).
func RunWLAN(scen *mobility.Scenario, opt WLANOptions, seed uint64) WLANResult {
	c := newWLANClient(scen, opt, seed, nil)
	for !c.advance() {
		c.transmit(c.t, false, medium.NoInterference, 0)
	}
	return c.result()
}
