package loadgen

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mobiwlan/internal/ctlproto"
)

// Hooks injects the wall-clock behaviour the engine itself must not
// have (mobilint bans the time package in internal/): the CLI and the
// tests decide how sim time maps to wall time.
type Hooks struct {
	// Pace, when set, is called with each report's sim time before it
	// is sent; sleep here to replay at a real-time factor.
	Pace func(simTime float64)
	// Timeout, when set, returns a channel that fires after roughly d
	// seconds of wall time; it bounds the wait for a roam directive so
	// a lossy run degrades into counted timeouts instead of hanging.
	// Nil waits forever.
	Timeout func(d float64) <-chan struct{}
	// TimeoutS is the directive-wait passed to Timeout (default 30).
	TimeoutS float64
}

// Stats are the engine's monotonic counters, readable while running.
type Stats struct {
	// ReportsSent counts mobility reports (batch entries included).
	ReportsSent uint64
	// FramesSent counts wire messages carrying them (batches count 1).
	FramesSent uint64
	// Triggers counts macro-away reports sent.
	Triggers uint64
	// DirectivesReceived counts roam directives observed.
	DirectivesReceived uint64
	// RequestsAnswered counts measure requests answered (counted as
	// each answer is sent, so it is complete once Stream returns).
	RequestsAnswered uint64
	// Timeouts counts rounds abandoned by the directive-wait timeout.
	Timeouts uint64
	// Errors counts connection-level send failures.
	Errors uint64
}

// Engine replays a Config's fleet against a ctlproto controller.
//
// Lifecycle: New → Connect (dial every AP; the caller then waits until
// the controller has registered all sessions) → Stream (replay the
// schedules) → Close. One responder goroutine per AP answers measure
// requests for the whole lifetime, so request handling never waits on
// the sender pool; senders block only on their own client's roam
// directive, which trigger spacing guarantees the controller will
// issue (see Config.Validate).
type Engine struct {
	cfg  Config
	addr string

	conns      []*ctlproto.APConn
	directives []chan ctlproto.RoamDirective
	respWG     sync.WaitGroup

	reportsSent atomic.Uint64
	framesSent  atomic.Uint64
	triggers    atomic.Uint64
	directivesN atomic.Uint64
	answered    atomic.Uint64
	timeouts    atomic.Uint64
	errors      atomic.Uint64
}

// New validates cfg and prepares an engine against the controller at
// addr.
func New(cfg Config, addr string) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg, addr: addr}, nil
}

// Connect dials every AP session and starts its responder. On error the
// already-opened sessions are closed. After Connect, wait for the
// controller to register all sessions before calling Stream — fan-out
// target sets, and with them the decision log, depend on the full
// fleet being visible.
func (e *Engine) Connect() error {
	e.conns = make([]*ctlproto.APConn, e.cfg.APs)
	e.directives = make([]chan ctlproto.RoamDirective, e.cfg.APs)
	for i := 0; i < e.cfg.APs; i++ {
		conn, err := ctlproto.Dial(e.addr, APID(i))
		if err != nil {
			e.Close()
			return fmt.Errorf("loadgen: dialing %s: %w", APID(i), err)
		}
		e.conns[i] = conn
		e.directives[i] = make(chan ctlproto.RoamDirective, 4)
		e.respWG.Add(1)
		go e.respond(i)
	}
	return nil
}

// respond answers measure requests and forwards roam directives to the
// sender until the connection closes.
func (e *Engine) respond(i int) {
	defer e.respWG.Done()
	conn := e.conns[i]
	for env := range conn.Inbound {
		switch env.Type {
		case ctlproto.TypeMeasureRequest:
			req, err := ctlproto.DecodePayload[ctlproto.MeasureRequest](env)
			if err != nil {
				e.errors.Add(1)
				continue
			}
			// Count before sending: the answer can complete a round,
			// and the round's directive can end Stream, before this
			// goroutine runs again, so counting after the write let a
			// Stats snapshot taken when Stream returns miss it. A failed
			// send is taken back out, so the count stays answers sent.
			e.answered.Add(1)
			if err := conn.ReportMeasurement(MeasureAnswer(conn.ID, req)); err != nil {
				e.answered.Add(^uint64(0))
				e.errors.Add(1)
			}
		case ctlproto.TypeRoamDirective:
			d, err := ctlproto.DecodePayload[ctlproto.RoamDirective](env)
			if err != nil {
				e.errors.Add(1)
				continue
			}
			e.directivesN.Add(1)
			select {
			case e.directives[i] <- d:
			default: // sender gone or not waiting; drop
			}
		}
	}
}

// Stream replays every AP's schedule using `jobs` concurrent workers
// (jobs <= 1 means serial). It returns once every schedule has been
// sent and every opened measurement round has resolved (directive
// received or timed out), so the controller-side decision log is
// complete when Stream returns.
func (e *Engine) Stream(jobs int, hooks Hooks) {
	if jobs < 1 {
		jobs = 1
	}
	if jobs > e.cfg.APs {
		jobs = e.cfg.APs
	}
	work := make(chan int)
	var wg sync.WaitGroup
	wg.Add(jobs)
	for w := 0; w < jobs; w++ {
		go e.worker(work, &wg, hooks)
	}
	for i := 0; i < e.cfg.APs; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}

func (e *Engine) worker(work chan int, wg *sync.WaitGroup, hooks Hooks) {
	defer wg.Done()
	for i := range work {
		e.runAP(i, hooks)
	}
}

// runAP replays AP i's schedule in time order: reports flow as v1
// messages or v2 delta batches; after each trigger the pending batch is
// flushed and the sender waits for the round's roam directive, which
// serializes a client's rounds and keeps the decision log
// schedule-determined.
func (e *Engine) runAP(i int, hooks Hooks) {
	conn := e.conns[i]
	sched := GenerateAP(e.cfg, i)
	batching := e.cfg.BatchSize > 1
	enc := ctlproto.BatchEncoder{APID: conn.ID, SnapshotEvery: e.cfg.SnapshotEvery}
	var batch ctlproto.ReportBatch

	flush := func() {
		if !enc.Flush(&batch) {
			return
		}
		if err := conn.ReportBatch(&batch); err != nil {
			e.errors.Add(1)
			return
		}
		e.framesSent.Add(1)
	}

	for idx := range sched {
		r := &sched[idx]
		if hooks.Pace != nil {
			hooks.Pace(r.Rep.Time)
		}
		if batching {
			if err := enc.Add(&r.Rep); err != nil {
				e.errors.Add(1)
				continue
			}
			e.reportsSent.Add(1)
			if enc.Len() >= e.cfg.BatchSize {
				flush()
			}
		} else {
			if err := conn.ReportMobility(r.Rep); err != nil {
				e.errors.Add(1)
				continue
			}
			e.reportsSent.Add(1)
			e.framesSent.Add(1)
		}
		if r.Trigger {
			e.triggers.Add(1)
			if batching {
				flush()
			}
			e.awaitDirective(i, hooks)
		}
	}
	if batching {
		flush()
	}
}

// awaitDirective blocks until the AP's pending round resolves.
func (e *Engine) awaitDirective(i int, hooks Hooks) {
	var timeout <-chan struct{}
	if hooks.Timeout != nil {
		d := hooks.TimeoutS
		if d <= 0 {
			d = 30
		}
		timeout = hooks.Timeout(d)
	}
	select {
	case <-e.directives[i]:
	case <-timeout:
		e.timeouts.Add(1)
	}
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		ReportsSent:        e.reportsSent.Load(),
		FramesSent:         e.framesSent.Load(),
		Triggers:           e.triggers.Load(),
		DirectivesReceived: e.directivesN.Load(),
		RequestsAnswered:   e.answered.Load(),
		Timeouts:           e.timeouts.Load(),
		Errors:             e.errors.Load(),
	}
}

// Close drops every AP connection and waits for the responders.
func (e *Engine) Close() {
	for _, conn := range e.conns {
		if conn != nil {
			_ = conn.Close()
		}
	}
	e.respWG.Wait()
}
