package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"mobiwlan/internal/geom"
	"mobiwlan/internal/roaming"
	"mobiwlan/internal/scenario"
	"mobiwlan/internal/sim"
	"mobiwlan/internal/stats"
)

// fleetWorkload is one generated fleet workload: the scenario document
// the benchmark writes, the build seeds of the fleets a run cycles
// through, and the harness options they run under.
type fleetWorkload struct {
	name string
	doc  []byte
	// seed is the workload seed; it names the digest and the span dump.
	seed uint64
	// draws are the scenario.Build seeds of the run's fleets, drawn from
	// seed. Pass p runs fleet p mod len(draws).
	draws []uint64
	opt   sim.FleetOptions
}

// fleetsPerRun is how many distinct fleets a run cycles through. One
// fleet's aggregate goodput and cost depend on where its few clients
// happen to stand; averaging over eight fleets drawn from the seed cuts
// that seed-to-seed spread without making a pass longer.
const fleetsPerRun = 8

func newFleetWorkload(name, doc string, seed uint64, opt sim.FleetOptions) fleetWorkload {
	r := stats.NewRNG(seed)
	draws := make([]uint64, fleetsPerRun)
	for j := range draws {
		draws[j] = r.Split(uint64(j) + 1).Uint64()
	}
	return fleetWorkload{name: name, doc: []byte(doc), seed: seed, draws: draws, opt: opt}
}

// firstFleet narrows the workload to its first fleet, the one the traced
// run replays.
func (w fleetWorkload) firstFleet() fleetWorkload {
	w.draws = w.draws[:1]
	return w
}

// genFleetMove writes the moving-only mix: micro callers, pedestrian
// random-waypoint walkers, and bike Manhattan riders on the legacy 802.11
// stack (so the fleet scans as well as hands off), on the paper's office
// floor, run uncontended. The group knobs are fixed; the seed reaches
// every trajectory, scatterer and channel through scenario.Build. Knobs
// drawn from the seed would add seed-to-seed spread to the goodput
// without adding a layer to the measurement.
func genFleetMove(seed uint64) fleetWorkload {
	doc := fmt.Sprintf(`{
  "v": 1, "name": "fleet-move", "duration_s": %d,
  "clients": [
    { "id": "caller", "count": %d, "mode": "micro", "micro_radius_m": 0.5 },
    { "id": "walker", "count": %d, "mode": "macro", "model": "random-waypoint", "speed": "pedestrian", "pause_s": 1.5 },
    { "id": "rider", "count": %d, "mode": "macro", "model": "manhattan", "speed": "bike", "block_m": 12, "motion_aware": false }
  ]
}`, moveDurationS, moveCallers, moveWalkers, moveRiders)
	return newFleetWorkload("fleet-move", doc, seed, sim.FleetOptions{Jobs: 1})
}

// genFleetCrowd writes the dense crowd: mostly static and environmental
// clients with some micro, no macro, on a small floor, run through the
// shared medium with each client's links capped to its nearest APs.
func genFleetCrowd(seed uint64) fleetWorkload {
	doc := fmt.Sprintf(`{
  "v": 1, "name": "fleet-crowd", "duration_s": %d,
  "floor": { "min_x": 0, "min_y": 0, "max_x": 24, "max_y": 16 },
  "clients": [
    { "id": "seat", "count": %d, "mode": "static" },
    { "id": "booth", "count": %d, "mode": "environmental", "env_intensity": 1.2 },
    { "id": "phone", "count": %d, "mode": "micro", "micro_radius_m": 0.5 }
  ]
}`, crowdDurationS, crowdStatic, crowdEnv, crowdMicro)
	opt := sim.FleetOptions{Jobs: 1, Contend: true, APs: crowdAPs, MaxAPs: crowdMaxAPs}
	return newFleetWorkload("fleet-crowd", doc, seed, opt)
}

// Fleet sizes. One pass takes one to three seconds on a 2-vCPU host, so
// a run of tens of seconds holds every fleet at least once and enough
// passes for a steady median. Six seconds give the mobility-aware
// walkers time to be classified macro and hand off.
const (
	moveDurationS = 6
	moveCallers   = 2
	moveWalkers   = 2
	moveRiders    = 2

	crowdDurationS = 6
	crowdStatic    = 18
	crowdEnv       = 18
	crowdMicro     = 12
	crowdAPs       = 4
	crowdMaxAPs    = 2
)

// deployment returns the AP positions scenario.Build homes clients to:
// none for an uncontended fleet, the generated grid for a contended one
// (the plan sim's contended runner uses when FleetOptions.Plan is empty).
func (w fleetWorkload) deployment() []geom.Point {
	if !w.opt.Contend {
		return nil
	}
	return roaming.GridPlan(w.opt.APs).APs
}

// setup parses the generated spec and builds every fleet of the run:
// the system's own work before the first simulated frame.
func (w fleetWorkload) setup() (*scenario.Spec, error) {
	spec, err := scenario.Parse(w.name+".json", w.doc)
	if err != nil {
		return nil, err
	}
	for _, d := range w.draws {
		if _, err := scenario.Build(spec, w.deployment(), d); err != nil {
			return nil, err
		}
	}
	return spec, nil
}

// timeSetups appends the wall times of n back-to-back set-ups to ts.
func (w fleetWorkload) timeSetups(n int, ts []float64) ([]float64, *scenario.Spec, error) {
	var spec *scenario.Spec
	for i := 0; i < n; i++ {
		t0 := time.Now()
		s, err := w.setup()
		d := time.Since(t0).Seconds()
		if err != nil {
			return ts, nil, err
		}
		ts = append(ts, d)
		spec = s
	}
	return ts, spec, nil
}

// fleetRun is the outcome of the untraced passes.
type fleetRun struct {
	passes    int
	clientS   float64 // simulated client-seconds per pass
	rates     []float64
	walls     []float64
	firsts    []sim.FleetResult // each fleet's result, from its first pass
	setups    []float64         // set-up wall times, timed between passes
	attempted uint64
	failed    uint64
	problems  []string
}

// goodput is the mean aggregate goodput of the run's fleets, summed in
// fleet order so it is exact for a seed.
func (fr fleetRun) goodput() float64 {
	var sum float64
	for _, r := range fr.firsts {
		sum += r.TotalMbps
	}
	return sum / float64(len(fr.firsts))
}

// runFleetPasses runs whole passes, cycling through the workload's
// fleets, until `seconds` of wall time have been spent and every fleet
// has run (at least minPasses). A fleet that runs again must reproduce
// its first pass exactly, and every pass must pass the fleet gates.
// After each pass it times setupsPerPass set-ups, so that the set-up
// samples are spread over the whole run rather than taken in one burst
// that a single slow moment of the host can cover.
func runFleetPasses(w fleetWorkload, spec *scenario.Spec, seconds float64, minPasses, setupsPerPass int) fleetRun {
	fr := fleetRun{clientS: float64(spec.Total) * spec.DurationS, firsts: make([]sim.FleetResult, len(w.draws))}
	start := time.Now()
	for fr.passes < len(w.draws) || fr.passes < minPasses || time.Since(start).Seconds() < seconds {
		j := fr.passes % len(w.draws)
		t0 := time.Now()
		res, err := sim.RunScenarioFleet(spec, w.opt, w.draws[j])
		wall := time.Since(t0).Seconds()
		fr.passes++
		fr.attempted += uint64(spec.Total)
		if err != nil {
			fr.failed += uint64(spec.Total)
			fr.problems = append(fr.problems, err.Error())
			continue
		}
		fr.walls = append(fr.walls, wall)
		fr.rates = append(fr.rates, fr.clientS/wall)
		bad := fleetGates(w, spec, res)
		if fr.passes <= len(w.draws) {
			fr.firsts[j] = res
		} else if !reflect.DeepEqual(res, fr.firsts[j]) {
			bad = append(bad, fmt.Sprintf("pass %d of fleet %d differs from its first pass", fr.passes, j))
		}
		if len(bad) > 0 {
			fr.failed += uint64(spec.Total)
			fr.problems = append(fr.problems, bad...)
		}
		if fr.setups, _, err = w.timeSetups(setupsPerPass, fr.setups); err != nil {
			fr.problems = append(fr.problems, "set-up: "+err.Error())
		}
	}
	return fr
}

// fleetGates checks one pass: every client present with a finite
// result, and on contended runs the MPDU conservation law per client and
// in total.
func fleetGates(w fleetWorkload, spec *scenario.Spec, res sim.FleetResult) []string {
	var bad []string
	if len(res.PerClient) != spec.Total {
		bad = append(bad, fmt.Sprintf("%d clients in result, want %d", len(res.PerClient), spec.Total))
	}
	for i, c := range res.PerClient {
		if c.Client != i || math.IsNaN(c.Mbps) || c.Mbps < 0 {
			bad = append(bad, fmt.Sprintf("client %d: bad result %+v", i, c))
		}
	}
	if !w.opt.Contend {
		return bad
	}
	if res.Contend == nil {
		return append(bad, "contended run without medium accounting")
	}
	check := func(who string, m sim.MPDUCounts) {
		if m.Offered != m.Delivered+m.PERLost+m.CollisionLost+m.OBSSLost {
			bad = append(bad, fmt.Sprintf("%s: MPDU conservation broken: %+v", who, m))
		}
	}
	check("fleet", res.Contend.MPDU)
	for i, m := range res.Contend.PerClient {
		check(fmt.Sprintf("client %d", i), m)
	}
	return bad
}
