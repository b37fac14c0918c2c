package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"mobiwlan/internal/sim"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (10 samples beyond)", got)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	// root [0,100] holds a [10,30] and b [40,70]; b holds c [45,50].
	spans := []span{
		{name: bSimLoop, parent: -1, start: 0, end: 100},
		{name: bChannelResponse, parent: 0, start: 10, end: 30},
		{name: bChannelMeasure, parent: 0, start: 40, end: 70},
		{name: bChannelResponse, parent: 2, start: 45, end: 50},
	}
	want := []int64{50, 20, 25, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got[i], want[i])
		}
	}
	led := ledger(spans)
	if l := led[bChannelResponse]; l.calls != 2 || l.totNS != 25 || l.selfNS != 25 {
		t.Errorf("channel.response totals %+v, want 2 calls, 25 ns total, 25 ns self", l)
	}
	var self int64
	for _, l := range led {
		self += l.selfNS
	}
	if self != 100 {
		t.Errorf("self times sum to %d, want the root's 100", self)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.setTrace(7)
	root := tr.begin(bSimLoop)
	a := tr.begin(bChannelMeasure)
	tr.end(a)
	b := tr.begin(bRateAdapt)
	c := tr.begin(bAggregation)
	tr.end(c)
	tr.end(b)
	tr.end(root)
	wantParent := []int32{-1, 0, 0, 2}
	for i, s := range tr.spans {
		if s.parent != wantParent[i] || s.trace != 7 || s.end < s.start {
			t.Errorf("span %d = %+v, want parent %d in trace 7", i, s, wantParent[i])
		}
	}
}

// TestMetricsDeclared checks every metric a workload prints against
// BENCHMARK.json: the name has the allowed shape, it is declared in the
// right section, and it carries the declared unit; and that every run
// prints every metric of its section, the end-to-end ones above 0.
func TestMetricsDeclared(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	declared := [2]map[string]string{{}, {}}
	for _, m := range bench.EndToEnd {
		declared[0][m.Name] = m.Unit
	}
	for _, m := range bench.PerLayer {
		declared[1][m.Name] = m.Unit
	}
	for i, d := range declared {
		for name, unit := range d {
			if err := checkMetrics(map[string]metric{name: {1, unit}}); err != nil {
				t.Errorf("BENCHMARK.json section %d: %v", i, err)
			}
		}
	}

	for _, w := range []string{"fleet-crowd", "fleet-move"} {
		for trace := 0; trace < 2; trace++ {
			o := opts{workload: w, seed: defaultSeed, seconds: 0.3, trace: trace == 1, spansDir: t.TempDir(), out: &bytes.Buffer{}}
			res, err := measureFleet(o, shortFleet(t, fleetFor(o)))
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%t failed=%d of %d\n%s", w, trace, res.Correct, res.Failed, res.Attempted, o.out)
			}
			if err := checkMetrics(res.Metrics); err != nil {
				t.Errorf("%s trace=%d: %v", w, trace, err)
			}
			for name, m := range res.Metrics {
				if unit, ok := declared[trace][name]; !ok || unit != m.Unit {
					t.Errorf("%s trace=%d prints %s in %q; BENCHMARK.json declares %q (declared: %t)", w, trace, name, m.Unit, unit, ok)
				}
			}
			// Every run prints every metric of its section.
			for name := range declared[trace] {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%d does not print %s", w, trace, name)
				} else if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
				}
			}
		}
	}
}

// shortFleet cuts a generated fleet to 2 simulated seconds so a test
// pass takes a fraction of a second, and renames it so the full-length
// goodput digests do not apply.
func shortFleet(t *testing.T, w fleetWorkload) fleetWorkload {
	t.Helper()
	long := []byte(`"duration_s": 6,`)
	if !bytes.Contains(w.doc, long) {
		t.Fatalf("no duration to shorten in %s", w.doc)
	}
	w.doc = bytes.Replace(w.doc, long, []byte(`"duration_s": 2,`), 1)
	w.name += "-short"
	return w
}

// TestLoopCopyMatchesSim is the check every traced run makes, on both
// fleet workloads: the benchmark's copy of the client loop reproduces
// sim's per-client results exactly, and a copy that drifts from sim (a
// roaming tick 10% longer) fails the comparison.
func TestLoopCopyMatchesSim(t *testing.T) {
	for _, gen := range []func(uint64) fleetWorkload{genFleetMove, genFleetCrowd} {
		w := shortFleet(t, gen(heldOutSeed)).firstFleet()
		spec, err := w.setup()
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.RunScenarioFleet(spec, w.opt, w.draws[0])
		if err != nil {
			t.Fatal(err)
		}
		var wantMPDU []sim.MPDUCounts
		if want.Contend != nil {
			wantMPDU = want.Contend.PerClient
		}
		got, err := runTracedFleet(simConsts, newTracer(), w, spec)
		if err != nil {
			t.Fatal(err)
		}
		if bad := compareFleet(want.PerClient, wantMPDU, got); len(bad) > 0 {
			t.Errorf("%s: copy differs from sim:\n%s", w.name, strings.Join(bad, "\n"))
		}

		drift := simConsts
		drift.tick *= 1.1
		got, err = runTracedFleet(drift, newTracer(), w, spec)
		if err != nil {
			t.Fatal(err)
		}
		if bad := compareFleet(want.PerClient, wantMPDU, got); len(bad) == 0 {
			t.Errorf("%s: a copy with a 10%% longer roaming tick still matched sim", w.name)
		}
	}
}

func TestDigestsCoverDefaultAndHeldOutSeeds(t *testing.T) {
	var digests map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &digests); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"fleet-move", "fleet-crowd"} {
		for _, s := range []string{"1", "2"} {
			if digests[w][s] == "" {
				t.Errorf("digests.json has no %s digest at seed %s", w, s)
			}
		}
	}
	if err := checkDigest("fleet-move", defaultSeed, -1); err == nil {
		t.Error("a goodput that differs from the digest passed the check")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "fleet-move", "--seconds", "0"},
		{"--workload", "fleet-move", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed a result: %q", args, out.String())
		}
	}
}
