package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"mobiwlan/internal/sim"
)

// setupsPerPass is how many back-to-back set-ups are timed before the
// first pass and after every pass; setup_s is the median of them all.
// One set-up takes 0.1 to 2 ms, and single timings that short scatter by
// tens of percent.
const setupsPerPass = 15

func fleetFor(o opts) fleetWorkload {
	if o.workload == "fleet-crowd" {
		return genFleetCrowd(o.seed)
	}
	return genFleetMove(o.seed)
}

// runFleetWorkload measures a fleet workload: end-to-end metrics from
// untraced passes, or the per-layer ledger from a traced pass.
func runFleetWorkload(o opts) (result, error) {
	return measureFleet(o, fleetFor(o))
}

// measureFleet is runFleetWorkload for a given workload.
func measureFleet(o opts, w fleetWorkload) (result, error) {
	if o.trace {
		return runFleetTraced(o, w)
	}
	setups, spec, err := w.timeSetups(setupsPerPass, nil)
	if err != nil {
		return result{}, err
	}
	fr := runFleetPasses(w, spec, o.seconds, 0, setupsPerPass)
	setupS := median(append(setups, fr.setups...))
	// One more, untimed pass measures the peak heap.
	peak := peakHeapMB(func() {
		extra := runFleetPasses(w.firstFleet(), spec, 0, 1, 0)
		fr.attempted += extra.attempted
		fr.failed += extra.failed
		fr.problems = append(fr.problems, extra.problems...)
	})
	goodput := fr.goodput()
	if err := checkDigest(w.name, w.seed, goodput); err != nil {
		fr.failed += uint64(spec.Total)
		fr.problems = append(fr.problems, err.Error())
	}
	handoffs, scans := 0, 0
	for _, r := range fr.firsts {
		handoffs += r.Handoffs
		scans += r.Scans
	}
	o.report("fleet fleets=%d clients_per_fleet=%d client_s_per_pass=%g passes=%d clients_run=%d clients_failed=%d handoffs=%d scans=%d",
		len(w.draws), spec.Total, fr.clientS, fr.passes, fr.attempted, fr.failed, handoffs, scans)
	for _, p := range fr.problems {
		o.report("FAIL %s", p)
	}
	return result{
		Correct:   len(fr.problems) == 0,
		Attempted: fr.attempted,
		Failed:    fr.failed,
		Metrics: map[string]metric{
			"client_s_per_s":   {median(fr.rates), "client_s/s"},
			"sim_goodput_mbps": {goodput, "Mbps"},
			"peak_heap_mb":     {peak, "MB"},
			"setup_s":          {setupS, "s"},
		},
	}, nil
}

// fleetBoundaries are the layers a fleet ledger reports.
var fleetBoundaries = []boundary{
	bSimLoop, bChannelMeasure, bChannelResponse, bCSICorrelation, bPHYErrorModel, bPHYAirtime,
	bCoreClassifier, bToFTrack, bRateAdapt, bAggregation, bRoamingDecide,
	bMediumNew, bMediumReserve, bMediumHeap, bScenarioBuild,
}

// runFleetTraced runs untraced passes of the first fleet for reference
// (a third of the budget), then one traced pass of the loop copy over the
// same fleet, which must reproduce the untraced per-client results
// exactly.
func runFleetTraced(o opts, w fleetWorkload) (result, error) {
	w = w.firstFleet()
	spec, err := w.setup()
	if err != nil {
		return result{}, err
	}
	fr := runFleetPasses(w, spec, o.seconds/3, 2, 0)
	problems := fr.problems
	want := fr.firsts[0]
	var wantMPDU []sim.MPDUCounts
	if want.Contend != nil {
		wantMPDU = want.Contend.PerClient
	}

	tr := newTracer()
	tf, err := runTracedFleet(simConsts, tr, w, spec)
	tracedNS := time.Since(tr.origin).Nanoseconds()
	if err != nil {
		return result{}, err
	}
	problems = append(problems, compareFleet(want.PerClient, wantMPDU, tf)...)
	attempted := fr.attempted + uint64(spec.Total)
	failed := fr.failed
	if len(problems) > 0 {
		failed += uint64(spec.Total)
	}

	led := ledger(tr.spans)
	m := map[string]metric{}
	var selfSum int64
	for _, b := range fleetBoundaries {
		l := led[b]
		selfSum += l.selfNS
		addLayer(m, b, l, tf.clientS, tracedNS)
	}
	var mpdu sim.MPDUCounts
	handoffs, scans := 0, 0
	for i, c := range tf.mpdu {
		mpdu.Offered += c.Offered
		mpdu.Delivered += c.Delivered
		mpdu.CollisionLost += c.CollisionLost
		handoffs += tf.per[i].Handoffs
		scans += tf.per[i].Scans
	}
	m["channel.cache_hit_ratio"] = metric{ratio(tf.cache.Hits, tf.cache.Hits+tf.cache.Misses), "ratio"}
	m["channel.path_reuse_ratio"] = metric{ratio(tf.cache.PathReuses, tf.cache.PathReuses+tf.cache.PathEvals), "ratio"}
	m["mac.mpdu_delivery_ratio"] = metric{ratio(mpdu.Delivered, mpdu.Offered), "ratio"}
	m["roaming.handoffs_per_scan"] = metric{ratio(uint64(handoffs), uint64(scans)), "ratio"}
	m["medium.collision_ratio"] = metric{ratio(mpdu.CollisionLost, mpdu.Offered), "ratio"}
	m["ledger.coverage"] = metric{float64(selfSum) / float64(tracedNS), "ratio"}
	untracedNS := median(fr.walls) * 1e9
	m["trace.overhead_ratio"] = metric{float64(tracedNS)/untracedNS - 1, "ratio"}

	path := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.csv", w.name, w.seed))
	if err := tr.dump(path); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	o.report("trace spans=%d file=%s traced_s=%.3f untraced_s=%.3f handoffs=%d scans=%d copy_matches_sim=%t",
		len(tr.spans), path, float64(tracedNS)/1e9, untracedNS/1e9, handoffs, scans, len(problems) == 0)
	for _, p := range problems {
		o.report("FAIL %s", strings.TrimSpace(p))
	}
	return result{Correct: len(problems) == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// addLayer adds a boundary's calls per simulated client-second, mean
// time per call, and self-time share of the traced wall time. The
// medium's boundaries have no time per call: the medium is idle on
// fleet-move, where that time would read 0 on every run, and its cost on
// fleet-crowd shows in the share.
func addLayer(m map[string]metric, b boundary, l layerTotals, clientS float64, wallNS int64) {
	m[b.String()+".calls"] = metric{float64(l.calls) / clientS, "1/client_s"}
	if b != bMediumNew && b != bMediumReserve && b != bMediumHeap {
		m[b.String()+".ns_per_call"] = metric{float64(l.totNS) / float64(max(l.calls, 1)), "ns"}
	}
	m[b.String()+".share"] = metric{float64(l.selfNS) / float64(wallNS), "ratio"}
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
