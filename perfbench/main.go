// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed wall-clock budget, checks the program's outputs,
// and prints its metrics; the last stdout line is a JSON object with the
// keys correct, attempted, failed and metrics.
//
//	perfbench --workload fleet-move --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with no tracing; --trace 1
// measures the per-layer ledger from spans recorded around each layer
// call and writes the spans to --spans-dir. See README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// defaultSeed is the seed the committed digests were taken at;
// heldOutSeed is kept back for confirming a claim made on defaultSeed.
const (
	defaultSeed = 1
	heldOutSeed = 2
)

var workloads = map[string]func(opts) (result, error){
	"fleet-move":  runFleetWorkload,
	"fleet-crowd": runFleetWorkload,
}

// opts are the parsed command-line settings.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spansDir string
	out      io.Writer
}

//mobilint:stdout the benchmark's metric lines and result line are its output
func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed (default %d; held-out seed %d)", defaultSeed, heldOutSeed))
	seconds := fs.Float64("seconds", 30, "wall-clock seconds of measured work")
	trace := fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer ledger from a traced run")
	spansDir := fs.String("spans-dir", filepath.Join(".bench_build", "spans"), "directory the traced run writes its span dump to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		_, _ = fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	o := opts{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, spansDir: *spansDir, out: stdout}
	_, _ = fmt.Fprintf(stdout, "host %s\n", hostFingerprint())
	_, _ = fmt.Fprintf(stdout, "run workload=%s seed=%d seconds=%g trace=%d\n", o.workload, o.seed, o.seconds, *trace)
	res, err := fn(o)
	if err != nil {
		_, _ = fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := checkMetrics(res.Metrics); err != nil {
		_, _ = fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := printResult(stdout, res); err != nil {
		_, _ = fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct || res.Failed > 0 {
		_, _ = fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed their checks\n", o.workload, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints one diagnostic line of the run.
func (o opts) report(format string, args ...any) {
	_, _ = fmt.Fprintf(o.out, format+"\n", args...)
}

// digestsJSON holds the exact sim_goodput_mbps of each fleet workload at
// the default and held-out seeds, keyed by workload, then seed; a run at
// either seed must reproduce its value bit for bit.
//
//go:embed digests.json
var digestsJSON []byte

// checkDigest compares a goodput with the digest for (workload, seed),
// if one is kept.
func checkDigest(workload string, seed uint64, mbps float64) error {
	var digests map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &digests); err != nil {
		return fmt.Errorf("reading digests.json: %w", err)
	}
	want, ok := digests[workload][strconv.FormatUint(seed, 10)]
	if !ok {
		return nil
	}
	if got := strconv.FormatFloat(mbps, 'g', -1, 64); got != want {
		return fmt.Errorf("sim_goodput_mbps %s at seed %d, digest %s", got, seed, want)
	}
	return nil
}
