package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"mobiwlan/internal/fastmath"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricName is the shape every metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitName is the shape every unit must have.
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// checkMetrics rejects a metric with a malformed name, a missing or
// malformed unit, or a value that is not a finite number.
func checkMetrics(ms map[string]metric) error {
	for name, m := range ms {
		if !metricName.MatchString(name) {
			return fmt.Errorf("metric name %q does not match %s", name, metricName)
		}
		if !unitName.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: unit %q does not match %s", name, m.Unit, unitName)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s: value %v is not finite", name, m.Value)
		}
	}
	return nil
}

// printResult writes the human-readable metric lines, then the JSON
// result as the last line.
func printResult(w io.Writer, r result) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		_, _ = fmt.Fprintf(w, "metric %-40s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile of sorted by the nearest-rank
// rule: the smallest sample with at least p% of the samples at or below
// it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// peakHeapMB runs fn while a sampler forces a garbage collection every
// heapSamplePeriod and reads the live heap it leaves, and returns the
// high-water mark of those samples in MB (10^6 bytes). Forcing the
// collections makes each sample what fn keeps reachable; the heap in
// use between collections also holds garbage, and how much depends on
// when the runtime chose to collect. The mark is the 95th percentile of
// the samples, not their maximum: on fleet-move, where one client's
// stack is alive at a time, a single transient sample lifted the maximum
// of a pass by 40% in one of three runs at the same seed.
func peakHeapMB(fn func()) float64 {
	stop := make(chan struct{})
	var done sync.WaitGroup
	var live []float64
	done.Add(1)
	go func() {
		defer done.Done()
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(heapSamplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			runtime.GC()
			metrics.Read(sample)
			live = append(live, float64(sample[0].Value.Uint64())/1e6)
		}
	}()
	fn()
	close(stop)
	done.Wait()
	sort.Float64s(live)
	return percentile(live, 95)
}

const heapSamplePeriod = 10 * time.Millisecond

// hostFingerprint names what makes two sets of runs comparable: only
// runs with equal fingerprints are compared.
func hostFingerprint() string {
	goamd64 := "-"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				goamd64 = s.Value
			}
		}
	}
	fp := map[string]any{
		"cpu":                  strings.TrimSpace(cpuModel()),
		"nproc":                runtime.NumCPU(),
		"gomaxprocs":           runtime.GOMAXPROCS(0),
		"go":                   runtime.Version(),
		"goarch":               runtime.GOARCH,
		"goamd64":              goamd64,
		"fastmath.SincosExact": fastmath.SincosExact,
	}
	b, _ := json.Marshal(fp) // map of strings, ints and bools: cannot fail
	return string(b)
}
