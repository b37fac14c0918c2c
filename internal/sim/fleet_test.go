package sim

import (
	"testing"

	"mobiwlan/internal/mobility"
	"mobiwlan/internal/obs"
)

// TestRunWLANFleetDeterministic is the fleet smoke test (short-friendly):
// a small fleet must produce byte-identical per-client results at jobs=1
// and jobs=4, and again on a repeat run — the RNG-split/trial-key
// determinism contract at fleet scale.
func TestRunWLANFleetDeterministic(t *testing.T) {
	opt := FleetOptions{Clients: 4, Duration: 2, MotionAware: true, Jobs: 1}
	serial := RunWLANFleet(opt, 5)
	opt.Jobs = 4
	fanned := RunWLANFleet(opt, 5)
	repeat := RunWLANFleet(opt, 5)

	if len(serial.PerClient) != opt.Clients || len(fanned.PerClient) != opt.Clients {
		t.Fatalf("fleet sizes: %d and %d, want %d",
			len(serial.PerClient), len(fanned.PerClient), opt.Clients)
	}
	for i := range serial.PerClient {
		if serial.PerClient[i] != fanned.PerClient[i] {
			t.Fatalf("client %d differs across jobs: %+v vs %+v",
				i, serial.PerClient[i], fanned.PerClient[i])
		}
		if fanned.PerClient[i] != repeat.PerClient[i] {
			t.Fatalf("client %d differs across runs: %+v vs %+v",
				i, fanned.PerClient[i], repeat.PerClient[i])
		}
	}
	if serial.TotalMbps != fanned.TotalMbps || serial.Handoffs != fanned.Handoffs ||
		serial.Scans != fanned.Scans {
		t.Fatalf("aggregates differ: %+v vs %+v", serial, fanned)
	}
}

// TestRunWLANFleetShape checks mode assignment (round-robin over the four
// classes, in order), aggregate consistency, and the telemetry counter.
func TestRunWLANFleetShape(t *testing.T) {
	scope := obs.NewScope(0)
	opt := FleetOptions{Clients: 5, Duration: 1, Jobs: 2, Obs: scope}
	res := RunWLANFleet(opt, 9)

	var total float64
	for i, c := range res.PerClient {
		if c.Client != i {
			t.Fatalf("client %d reported index %d", i, c.Client)
		}
		if want := mobility.AllModes[i%len(mobility.AllModes)]; c.Mode != want {
			t.Fatalf("client %d mode %v, want %v", i, c.Mode, want)
		}
		if c.Mbps < 0 {
			t.Fatalf("client %d negative goodput %v", i, c.Mbps)
		}
		total += c.Mbps
	}
	if res.TotalMbps != total {
		t.Fatalf("TotalMbps %v != sum %v", res.TotalMbps, total)
	}
	if res.MeanMbps != total/float64(opt.Clients) {
		t.Fatalf("MeanMbps %v inconsistent with total %v", res.MeanMbps, total)
	}
	if got := scope.Reg.Counter("sim.fleet.clients").Value(); got != uint64(opt.Clients) {
		t.Fatalf("fleet client counter = %d, want %d", got, opt.Clients)
	}
}

// TestRunWLANFleetEmpty pins the degenerate case.
func TestRunWLANFleetEmpty(t *testing.T) {
	if res := RunWLANFleet(FleetOptions{}, 1); len(res.PerClient) != 0 ||
		res.TotalMbps != 0 {
		t.Fatalf("empty fleet produced %+v", res)
	}
}

// TestFleetChannelCacheCounters checks that a finished fleet publishes
// its links' channel response-cache counters: every counter is non-zero
// on a mixed-mode fleet and the totals are the same at jobs=1 and
// jobs=4.
func TestFleetChannelCacheCounters(t *testing.T) {
	names := []string{"channel.cache.hits", "channel.cache.misses", "channel.cache.path_evals", "channel.cache.path_reuses"}
	counts := func(jobs int) []uint64 {
		scope := obs.NewScope(0)
		RunWLANFleet(FleetOptions{Clients: 4, Duration: 1, MotionAware: true, Jobs: jobs, Obs: scope}, 7)
		out := make([]uint64, len(names))
		for i, n := range names {
			out[i] = scope.Reg.Counter(n).Value()
		}
		return out
	}
	serial, fanned := counts(1), counts(4)
	for i, n := range names {
		if serial[i] == 0 {
			t.Errorf("%s = 0 after a fleet run", n)
		}
		if serial[i] != fanned[i] {
			t.Errorf("%s = %d at jobs=1, %d at jobs=4", n, serial[i], fanned[i])
		}
	}
}
