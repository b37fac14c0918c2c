package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	name, res, ok := parseBenchLine("BenchmarkChannelResponse-8   \t  212310\t      5630 ns/op\t       0 B/op\t       0 allocs/op")
	if !ok || name != "BenchmarkChannelResponse" {
		t.Fatalf("parse failed: ok=%v name=%q", ok, name)
	}
	if res.NsPerOp != 5630 || res.BytesPerOp != 0 || res.AllocsPerOp != 0 {
		t.Fatalf("bad result %+v", res)
	}
	if _, _, ok := parseBenchLine("PASS"); ok {
		t.Fatal("non-benchmark line parsed")
	}
	if _, _, ok := parseBenchLine("BenchmarkX-8 10 5 ns/op"); ok {
		t.Fatal("line without -benchmem columns parsed")
	}
	// Sub-benchmark names keep their /case path; only -GOMAXPROCS strips.
	name, _, ok = parseBenchLine("BenchmarkParallelTrials/jobs1-16 \t 100\t 10 ns/op\t 0 B/op\t 0 allocs/op")
	if !ok || name != "BenchmarkParallelTrials/jobs1" {
		t.Fatalf("sub-benchmark name: ok=%v name=%q", ok, name)
	}
}

func TestCompare(t *testing.T) {
	base := Snapshot{Benchmarks: map[string]Result{
		"A": {NsPerOp: 100, BytesPerOp: 0, AllocsPerOp: 0},
		"B": {NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10},
		"C": {NsPerOp: 100},
	}}
	cur := Snapshot{Benchmarks: map[string]Result{
		"A": {NsPerOp: 120, BytesPerOp: 8, AllocsPerOp: 1}, // alloc regression (0 baseline: zero slack)
		"B": {NsPerOp: 200, BytesPerOp: 1000, AllocsPerOp: 10},
		// C missing: must fail rather than vanish
		"D": {NsPerOp: 5}, // new coverage: ignored
	}}
	regs := compare(base, cur, 0.35)
	var got []string
	for _, r := range regs {
		got = append(got, r.name)
	}
	want := []string{"A", "A", "B", "C"} // A allocs + A bytes, B time, C missing
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("regressions %v, want %v", got, want)
	}
}

func TestAllocSlackTruncates(t *testing.T) {
	// Under 100 allocs the 1% slack truncates to zero: exact gate.
	for _, base := range []int64{0, 1, 50, 99} {
		if allocSlack(base) != 0 {
			t.Fatalf("allocSlack(%d) = %d, want 0", base, allocSlack(base))
		}
	}
	if allocSlack(1524) != 15 {
		t.Fatalf("allocSlack(1524) = %d, want 15", allocSlack(1524))
	}
}

// captureDelta renders reportDelta through a real temp file (the function
// writes to *os.File) and returns the text.
func captureDelta(t *testing.T, oldSnap, newSnap Snapshot, md bool) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "delta")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reportDelta(f, "OLD.json", "NEW.json", oldSnap, newSnap, md)
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestReportDelta(t *testing.T) {
	oldSnap := Snapshot{Benchmarks: map[string]Result{
		"BenchmarkFleet": {NsPerOp: 200, BytesPerOp: 900, AllocsPerOp: 30},
		"BenchmarkGone":  {NsPerOp: 50},
	}}
	newSnap := Snapshot{Benchmarks: map[string]Result{
		"BenchmarkFleet": {NsPerOp: 100, BytesPerOp: 800, AllocsPerOp: 20},
		"BenchmarkNew":   {NsPerOp: 10, BytesPerOp: 1, AllocsPerOp: 1},
	}}

	text := captureDelta(t, oldSnap, newSnap, false)
	for _, want := range []string{"0.50x", "30 -> 20", "900 -> 800", "added", "removed", "OLD.json -> NEW.json"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text delta missing %q:\n%s", want, text)
		}
	}

	mdOut := captureDelta(t, oldSnap, newSnap, true)
	for _, want := range []string{"| BenchmarkFleet | 200.0 | 100.0 | 0.50x | 30 | 20 | 900 | 800 |", "| added |", "| removed |", "|---|"} {
		if !strings.Contains(mdOut, want) {
			t.Fatalf("markdown delta missing %q:\n%s", want, mdOut)
		}
	}
}

// TestCompareModeEndToEnd drives run() through the -compare path with real
// snapshot files, including the usage and schema failure modes.
func TestCompareModeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	oldPath := write("old.json", `{"schema":"mobiwlan-bench/1","bench":".","benchmarks":{"BenchmarkX":{"ns_per_op":10,"b_per_op":0,"allocs_per_op":0}}}`)
	newPath := write("new.json", `{"schema":"mobiwlan-bench/1","bench":".","benchmarks":{"BenchmarkX":{"ns_per_op":5,"b_per_op":0,"allocs_per_op":0}}}`)
	badPath := write("bad.json", `{"schema":"other/9"}`)

	stdout, err := os.CreateTemp(dir, "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()

	if code := run([]string{"-compare", oldPath, newPath}, stdout, devnull); code != 0 {
		t.Fatalf("compare exit %d, want 0", code)
	}
	out, _ := os.ReadFile(stdout.Name())
	if !strings.Contains(string(out), "0.50x") {
		t.Fatalf("compare output missing ratio:\n%s", out)
	}
	// Flags must precede positionals (stdlib flag stops at the first
	// non-flag arg) — this is the exact shape the CI job-summary step uses.
	if code := run([]string{"-compare", "-md", oldPath, newPath}, stdout, devnull); code != 0 {
		t.Fatalf("markdown compare exit %d, want 0", code)
	}
	out, _ = os.ReadFile(stdout.Name())
	if !strings.Contains(string(out), "| BenchmarkX | 10.0 | 5.0 | 0.50x |") {
		t.Fatalf("markdown compare output missing table row:\n%s", out)
	}
	if code := run([]string{"-compare", oldPath}, stdout, devnull); code != 2 {
		t.Fatalf("one-arg compare exit %d, want 2", code)
	}
	if code := run([]string{"-compare", oldPath, badPath}, stdout, devnull); code != 2 {
		t.Fatalf("bad-schema compare exit %d, want 2", code)
	}
}

// TestHostDiff pins the fingerprint comparison -check warns with: equal
// hosts are silent, and each differing field or probe (including one
// present on only one side) is named once, probes in name order.
func TestHostDiff(t *testing.T) {
	base := Host{CPU: "A", NProc: 2, GOAMD64: "v1", GoVersion: "go1.24.0",
		Probes: map[string]bool{"fastmath.LanesExact": true, "channel.pow075Exact": true}}
	if d := hostDiff(base, base); len(d) != 0 {
		t.Fatalf("identical hosts differ: %v", d)
	}
	cur := Host{CPU: "B", NProc: 2, GOAMD64: "v3", GoVersion: "go1.24.0",
		Probes: map[string]bool{"fastmath.LanesExact": false, "fastmath.SincosExact": true, "channel.pow075Exact": true}}
	want := []string{
		"cpu: A -> B",
		"goamd64: v1 -> v3",
		"fastmath.LanesExact: true -> false",
		"fastmath.SincosExact: absent -> true",
	}
	if got := hostDiff(base, cur); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("hostDiff = %q, want %q", got, want)
	}
}

// TestCurrentHostFingerprint checks the live fingerprint names every
// probe-gated fast path, and that committed snapshots without a host
// block still load (with a nil Host, which -check skips).
func TestCurrentHostFingerprint(t *testing.T) {
	h := currentHost()
	for _, name := range []string{"channel.fusedSweepOK", "channel.pow075Exact", "fastmath.SincosExact", "fastmath.LanesExact"} {
		if _, ok := h.Probes[name]; !ok {
			t.Errorf("host fingerprint lacks probe %s: %v", name, h.Probes)
		}
	}
	if h.CPU == "" || h.NProc < 1 {
		t.Errorf("incomplete fingerprint %+v", h)
	}
	snap, err := readSnapshot(filepath.Join("..", "..", "BENCH_pr10.json"))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Host != nil {
		t.Fatalf("BENCH_pr10.json predates host blocks but parsed one: %+v", snap.Host)
	}
}
