// The ctlproto soak drives the sharded controller with the loadgen
// engine (an import cycle keeps this in package ctlproto_test).
package ctlproto_test

import (
	"bytes"
	"testing"
	"time"

	"mobiwlan/internal/ctlproto"
	"mobiwlan/internal/loadgen"
	"mobiwlan/internal/obs"
	"mobiwlan/internal/transport"
)

// soakCfg is the 1000-AP fleet: 2000 clients, 50k mobility reports in
// v2 delta batches, 4000 measurement rounds (every client triggers at
// its 12th and 24th report).
func soakCfg() loadgen.Config {
	return loadgen.Config{
		Seed:             7,
		APs:              1000,
		ClientsPerAP:     2,
		ReportsPerClient: 25,
		Telemetry:        transport.Telemetry{Period: 1, Burst: 4},
		RoamEvery:        12,
		MinInterval:      1,
		BatchSize:        64,
	}
}

const (
	soakFanout = 8
	// soakQueueDepth sizes each shard queue so the soak cannot legally
	// drop: ~250 clients per shard, ≤ 41 routed messages per client.
	soakQueueDepth = 16384
)

// runSoak replays the fleet against a fresh sharded controller with
// `jobs` generator workers and returns the rendered decision log plus
// the engine counters. It asserts zero drops and exact conservation —
// the preconditions for the byte-identical-log comparison.
func runSoak(t *testing.T, cfg loadgen.Config, jobs int) (string, loadgen.Stats) {
	t.Helper()
	reg := obs.NewRegistry()
	log := &ctlproto.DecisionLog{}
	coord := ctlproto.NewCoordinator()
	coord.MinInterval = cfg.MinInterval
	coord.MaxFanout = soakFanout
	coord.Met = ctlproto.NewMetrics(reg, nil)
	coord.Log = log
	// Queue depths sized so the soak cannot legally drop (soakQueueDepth).
	srv, err := ctlproto.NewServerConfig("127.0.0.1:0", coord, ctlproto.Config{
		Shards:         8,
		QueueDepth:     soakQueueDepth,
		SendQueueDepth: 256,
		Policy:         ctlproto.PolicyDrop,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetMetrics(coord.Met)

	eng, err := loadgen.New(cfg, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Connect(); err != nil {
		t.Fatal(err)
	}
	waitForShards(t, srv, soakQueueDepth, "fleet registered", func() bool { return len(srv.APs()) == cfg.APs })

	eng.Stream(jobs, loadgen.Hooks{
		Timeout: func(d float64) <-chan struct{} {
			ch := make(chan struct{})
			time.AfterFunc(time.Duration(d*float64(time.Second)), func() { close(ch) })
			return ch
		},
		TimeoutS: 60,
	})
	stats := eng.Stats()
	if stats.Errors != 0 || stats.Timeouts != 0 {
		t.Fatalf("stream degraded: %d errors, %d timeouts", stats.Errors, stats.Timeouts)
	}

	// Let the pipeline drain, then check conservation per session while
	// the sessions are still registered.
	wantRouted := stats.ReportsSent + stats.RequestsAnswered
	waitForShards(t, srv, soakQueueDepth, "pipeline drained", func() bool {
		return uint64(reg.Counter("ctlproto.shard.processed").Value()) == wantRouted
	})
	for _, ap := range srv.APs() {
		recv, proc, drop, outDrop, ok := srv.SessionStats(ap)
		if !ok {
			t.Fatalf("%s: session vanished", ap)
		}
		if drop != 0 || outDrop != 0 {
			t.Fatalf("%s: dropped %d inbound, %d outbound", ap, drop, outDrop)
		}
		if recv != proc {
			t.Fatalf("%s: received %d != processed %d", ap, recv, proc)
		}
	}

	eng.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	recv := reg.Counter("ctlproto.shard.received").Value()
	proc := reg.Counter("ctlproto.shard.processed").Value()
	drop := reg.Counter("ctlproto.shard.dropped").Value()
	if recv != proc+drop || drop != 0 {
		t.Fatalf("global conservation: received %d, processed %d, dropped %d", recv, proc, drop)
	}
	if uint64(recv) != wantRouted {
		t.Fatalf("routed %d reports, engine sent %d", recv, wantRouted)
	}
	if v := reg.Counter("ctlproto.out.dropped").Value(); v != 0 {
		t.Fatalf("%d outbound messages shed", v)
	}
	if v := reg.Counter("ctlproto.batch.rejected").Value(); v != 0 {
		t.Fatalf("%d batches/entries rejected", v)
	}

	var buf bytes.Buffer
	if err := log.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), stats
}

// TestSoakShardedFleet is the city-scale soak: a 1000-AP fleet streams
// 50k mobility reports as v2 delta batches through the sharded server
// and completes 4000 measurement rounds, twice with identical seeds but
// different worker counts. Run under -race in CI. It pins the PR's two
// headline contracts at once: exact conservation at every session (no
// drops, received = processed) and a decision log that is byte-identical
// across the two runs — schedule-determined, not scheduling-determined.
func TestSoakShardedFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	cfg := soakCfg()
	wantTriggers := uint64(cfg.APs * cfg.ClientsPerAP * (cfg.ReportsPerClient / cfg.RoamEvery))
	wantReports := uint64(cfg.APs * cfg.ClientsPerAP * cfg.ReportsPerClient)

	logA, statsA := runSoak(t, cfg, 4)
	logB, statsB := runSoak(t, cfg, 16)

	for _, st := range []loadgen.Stats{statsA, statsB} {
		if st.ReportsSent != wantReports {
			t.Fatalf("sent %d reports, want %d", st.ReportsSent, wantReports)
		}
		if st.Triggers != wantTriggers {
			t.Fatalf("%d triggers, want %d", st.Triggers, wantTriggers)
		}
		if st.DirectivesReceived != wantTriggers {
			t.Fatalf("%d directives for %d rounds: a round went undecided", st.DirectivesReceived, wantTriggers)
		}
		if st.RequestsAnswered != wantTriggers*soakFanout {
			t.Fatalf("answered %d measure requests, want %d", st.RequestsAnswered, wantTriggers*soakFanout)
		}
		// Batching actually engaged: far fewer frames than reports.
		if st.FramesSent >= st.ReportsSent {
			t.Fatalf("batching off: %d frames for %d reports", st.FramesSent, st.ReportsSent)
		}
	}
	if statsA != statsB {
		t.Fatalf("engine counters diverged across runs:\n  jobs=4:  %+v\n  jobs=16: %+v", statsA, statsB)
	}

	if logA != logB {
		t.Fatalf("decision logs diverged across identically-seeded runs (%d vs %d bytes)", len(logA), len(logB))
	}
	wantLines := int(wantTriggers)
	if got := bytes.Count([]byte(logA), []byte("\n")); got != wantLines {
		t.Fatalf("decision log has %d rounds, want %d", got, wantLines)
	}
	if bytes.Contains([]byte(logA), []byte("roamed=false")) {
		t.Fatal("a soak round decided not to roam; the workload is built so every round roams")
	}
}

// waitForShards polls cond for up to 30 s (fleet registration on one
// core can be slow under -race). On timeout it logs the sessions'
// summed conservation counters and every shard's queue fill before
// failing, so a stalled shard (received > processed, reports waiting)
// reads differently from a producer that never sent (received ==
// processed, queues empty).
func waitForShards(tb testing.TB, srv *ctlproto.Server, queueDepth int, what string, cond func() bool) {
	tb.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			var recv, proc, drop, outDrop uint64
			aps := srv.APs()
			for _, ap := range aps {
				r, p, d, o, _ := srv.SessionStats(ap)
				recv, proc, drop, outDrop = recv+r, proc+p, drop+d, outDrop+o
			}
			tb.Logf("%d sessions: received %d, processed %d, dropped %d, outbound shed %d",
				len(aps), recv, proc, drop, outDrop)
			for i, n := range srv.ShardQueueLens() {
				tb.Logf("shard %d: queue %d/%d", i, n, queueDepth)
			}
			tb.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
