package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// A boundary names one layer call the benchmark wraps in a span. The
// spans sit in the benchmark's own files, around calls into the layer's
// public API, so the program under test carries no tracing code.
type boundary uint8

const (
	// bSimLoop is the root span of the fleet loop copy; its self time is
	// the loop's own bookkeeping (traffic source, timers, state plumbing).
	bSimLoop boundary = iota
	bChannelMeasure
	bChannelResponse
	bCSICorrelation
	bPHYErrorModel
	bPHYAirtime
	bCoreClassifier
	bToFTrack
	bRateAdapt
	bAggregation
	bRoamingDecide
	bMediumNew
	bMediumReserve
	bMediumHeap
	bScenarioBuild
	numBoundaries
)

// boundaryNames are the metric prefixes of the boundaries, in enum order.
var boundaryNames = [numBoundaries]string{
	"sim.loop",
	"channel.measure",
	"channel.response",
	"csi.correlation",
	"phy.error_model",
	"phy.airtime",
	"core.classifier",
	"tof.track",
	"ratecontrol.adapt",
	"aggregation.mpdus",
	"roaming.decide",
	"medium.new",
	"medium.reserve",
	"medium.heap",
	"scenario.build",
}

func (b boundary) String() string { return boundaryNames[b] }

// span is one recorded call: times are nanoseconds since the tracer's
// origin, parent is the index of the enclosing span (-1 for a root).
type span struct {
	name       boundary
	trace      int32
	parent     int32
	start, end int64
}

// tracer keeps every span in memory; dump writes them when the run ends.
// Spans nest strictly (one goroutine, begin/end in stack order), so a
// span's children never overlap each other.
type tracer struct {
	origin time.Time
	trace  int32
	spans  []span
	stack  []int32
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

// setTrace makes later spans belong to trace id (one id per client).
func (t *tracer) setTrace(id int) {
	t.trace = int32(id)
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(b boundary) int32 {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: b, trace: t.trace, parent: parent, start: int64(time.Since(t.origin))})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	t.spans[id].end = int64(time.Since(t.origin))
	t.stack = t.stack[:len(t.stack)-1]
}

// layerTotals is one boundary's share of a trace.
type layerTotals struct {
	calls  uint64
	totNS  int64 // sum of span durations
	selfNS int64 // sum of span durations minus their direct children
}

// selfTimes returns each span's self time: its duration minus the
// durations of its direct children.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// ledger folds the spans into per-boundary totals.
func ledger(spans []span) [numBoundaries]layerTotals {
	var out [numBoundaries]layerTotals
	self := selfTimes(spans)
	for i, s := range spans {
		l := &out[s.name]
		l.calls++
		l.totNS += s.end - s.start
		l.selfNS += self[i]
	}
	return out
}

// dump writes the spans as CSV: one row per span with its trace id, its
// own index, its parent's index (-1 for a root), the boundary name, the
// start and end in nanoseconds since the trace began, and its self time.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	self := selfTimes(t.spans)
	_, _ = fmt.Fprintln(w, "trace,id,parent,name,start_ns,end_ns,self_ns")
	for i, s := range t.spans {
		_, _ = fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%d\n", s.trace, i, s.parent, s.name, s.start, s.end, self[i])
	}
	// bufio.Writer keeps the first write error; Flush returns it.
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
