package main

// Outside-in tracing. The simulator already accepts three interfaces
// from its caller — core.JobStream, sched.Scheduler and sim.Observer —
// so the benchmark wraps each in a type of its own that times the call
// and forwards it unchanged. Nothing inside the program is edited, and
// the untraced run uses the unwrapped values, so the difference between
// the two runs is the cost of tracing itself.
//
// Aggregates only: per-layer self time, call counts and a fixed-bucket
// latency histogram, all in memory and read once the replay ends.

import (
	"math"
	"math/bits"
	"time"

	"parsched/internal/core"
	"parsched/internal/metrics"
	"parsched/internal/sched"
)

// layer is one component boundary the tracer times.
type layer int

const (
	layerTrace   layer = iota // JobStream.Next: swf scan + clean + core.JobFromRecord
	layerSched                // Scheduler callbacks
	layerMetrics              // Collector.Observe / ObserveSample
	numLayers
)

// maxDepth bounds span nesting. Spans sit on a stack so that if the
// simulator calls one wrapped interface from inside another, the inner
// call's time is charged to the inner layer only: self time, not
// inclusive time, which keeps sim self time from going negative.
const maxDepth = 8

// tracer accumulates self time, call counts and per-call latency for
// each layer. It is single-goroutine, like the simulator it wraps.
type tracer struct {
	busy  [numLayers]time.Duration
	calls [numLayers]int64
	hist  [numLayers]histogram
	stack [maxDepth]layer
	depth int
	mark  time.Time
}

// enter opens a span of layer l, pausing the enclosing span if any.
func (t *tracer) enter(l layer) time.Time {
	now := time.Now()
	if t.depth > 0 {
		t.busy[t.stack[t.depth-1]] += now.Sub(t.mark)
	}
	if t.depth == maxDepth {
		panic("perfbench: span nesting deeper than maxDepth")
	}
	t.stack[t.depth] = l
	t.depth++
	t.mark = now
	return now
}

// exit closes the innermost span, which opened at start.
func (t *tracer) exit(start time.Time) {
	now := time.Now()
	t.depth--
	l := t.stack[t.depth]
	t.busy[l] += now.Sub(t.mark)
	t.calls[l]++
	t.hist[l].add(now.Sub(start))
	t.mark = now
}

// timedStream wraps the job source handed to sim.RunStream.
type timedStream struct {
	inner core.JobStream
	t     *tracer
}

func (s *timedStream) Next() (*core.Job, error) {
	start := s.t.enter(layerTrace)
	j, err := s.inner.Next()
	s.t.exit(start)
	return j, err
}

// timedScheduler wraps a scheduler and counts each callback kind.
type timedScheduler struct {
	inner                      sched.Scheduler
	t                          *tracer
	submits, finishes, changes int64
}

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) OnSubmit(ctx sched.Context, j *core.Job) {
	start := s.t.enter(layerSched)
	s.inner.OnSubmit(ctx, j)
	s.t.exit(start)
	s.submits++
}

func (s *timedScheduler) OnFinish(ctx sched.Context, j *core.Job) {
	start := s.t.enter(layerSched)
	s.inner.OnFinish(ctx, j)
	s.t.exit(start)
	s.finishes++
}

func (s *timedScheduler) OnChange(ctx sched.Context) {
	start := s.t.enter(layerSched)
	s.inner.OnChange(ctx)
	s.t.exit(start)
	s.changes++
}

// timedReporter is a timedScheduler whose inner scheduler exposes its
// queue. sim type-asserts sched.QueueReporter on the scheduler it is
// given, so a wrapper that dropped the method would change what the
// simulator sees; one that added it to a scheduler without a queue
// would too. Hence two types, chosen by wrapScheduler.
type timedReporter struct {
	*timedScheduler
	qr sched.QueueReporter
}

func (s *timedReporter) Queued() []*core.Job {
	start := s.t.enter(layerSched)
	q := s.qr.Queued()
	s.t.exit(start)
	return q
}

// wrapScheduler returns s timed by t, exposing exactly the optional
// interfaces s does. The returned *timedScheduler holds the counts.
func wrapScheduler(s sched.Scheduler, t *tracer) (sched.Scheduler, *timedScheduler) {
	ts := &timedScheduler{inner: s, t: t}
	if qr, ok := s.(sched.QueueReporter); ok {
		return &timedReporter{timedScheduler: ts, qr: qr}, ts
	}
	return ts, ts
}

// timedObserver wraps the metrics collector and counts job starts
// (final executions plus the ones outages killed) from the outcomes it
// forwards, the denominator of sched.calls_per_start.
type timedObserver struct {
	inner  *metrics.Collector
	t      *tracer
	starts int64
}

func (o *timedObserver) Observe(out metrics.Outcome) {
	start := o.t.enter(layerMetrics)
	o.inner.Observe(out)
	o.t.exit(start)
	o.starts += int64(out.Restarts)
	if out.Start >= 0 {
		o.starts++
	}
}

func (o *timedObserver) ObserveSample(s metrics.Sample) {
	start := o.t.enter(layerMetrics)
	o.inner.ObserveSample(s)
	o.t.exit(start)
}

// histogram is a log-linear latency histogram over nanoseconds: exact
// below 16 ns, then 8 buckets per power of two (≤12.5% bucket width).
type histogram struct {
	counts [histBuckets]int64
	n      int64
}

const (
	histSub     = 8
	histLinear  = 2 * histSub
	histBuckets = histLinear + (64-4)*histSub
)

func histIndex(ns uint64) int {
	if ns < histLinear {
		return int(ns)
	}
	e := bits.Len64(ns) - 1 // ns in [2^e, 2^(e+1)), e >= 4
	sub := int(ns>>(e-3)) & (histSub - 1)
	return histLinear + (e-4)*histSub + sub
}

// histLower is the smallest value that lands in bucket i.
func histLower(i int) float64 {
	if i < histLinear {
		return float64(i)
	}
	e := (i-histLinear)/histSub + 4
	sub := (i - histLinear) % histSub
	return math.Ldexp(float64(histSub+sub), e-3)
}

func (h *histogram) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histIndex(uint64(d))]++
	h.n++
}

// quantile returns the q-quantile in nanoseconds, interpolating
// linearly by rank inside the bucket that holds it.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(seen+c) >= rank {
			lo, hi := histLower(i), histLower(i+1)
			return lo + (hi-lo)*(rank-float64(seen))/float64(c)
		}
		seen += c
	}
	return histLower(histBuckets)
}
