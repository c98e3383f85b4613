package experiments

// Auto-streaming: Execute silently switches a big faithful trace
// replay from the materialize-everything path to the pull-based
// pipeline (trace.StreamSource → sim.RunStream). The switch is
// behavior-preserving — the streamed job sequence is byte-identical to
// the materialized one (see the property tests in
// internal/workload/trace) — so it keys purely on profitability:
// the log is large enough that holding it in memory hurts, and the run
// asks for the faithful replay streaming can deliver.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"parsched/internal/core"
	"parsched/internal/metrics"
	"parsched/internal/sched"
	"parsched/internal/sim"
	"parsched/internal/workload/trace"
)

// autoStreamBytes is the trace-file size above which Execute prefers
// the streaming pipeline. Below it, materializing is cheap and keeps
// the (better-exercised) default path; above it, the O(jobs) workload
// clone per run starts to dominate memory. A var, not a const, so
// tests can lower it to exercise the auto path on small fixtures.
var autoStreamBytes int64 = 32 << 20

// streamSource decides whether the spec can and should run through the
// streaming pipeline, and opens the stream source if so. Streaming
// serves exactly the faithful replay: recorded load (no rescaling),
// variant 0 (no gap resampling), open loop (no feedback), on a log
// whose cleaned order is its file order.
func (rs RunSpec) streamSource() (*trace.StreamSource, bool) {
	if rs.Source.Kind != sourceTrace || rs.Rep != 0 || rs.Sim.Feedback {
		return nil, false
	}
	for _, l := range rs.Loads {
		if l != 0 {
			return nil, false
		}
	}
	fi, err := os.Stat(rs.Source.Arg)
	if err != nil || fi.Size() < autoStreamBytes {
		return nil, false
	}
	src, err := cachedStreamSource(rs.Source.Arg)
	if err != nil || !src.Streamable() {
		// Unreadable or non-streamable logs fall back to the
		// materialized path, which reports errors properly.
		return nil, false
	}
	return src, true
}

// streamCache memoizes the statistics pass per absolute path, the
// streaming analogue of trace.Cached (and with the same contract:
// unbounded, never invalidated, assumes logs that do not change under
// a running process).
var streamCache sync.Map // abs path → *trace.StreamSource

func cachedStreamSource(path string) (*trace.StreamSource, error) {
	key := path
	if abs, err := filepath.Abs(path); err == nil {
		key = abs
	}
	if v, ok := streamCache.Load(key); ok {
		return v.(*trace.StreamSource), nil
	}
	src, err := trace.OpenStream(path)
	if err != nil {
		return nil, err
	}
	streamCache.Store(key, src)
	return src, nil
}

// ExecuteStream runs the RunSpec against an already-opened stream
// source, the streaming sibling of ExecuteSource. Unlike Execute's
// automatic gate it is an explicit request, so incompatible specs are
// errors rather than silent fallbacks: streaming serves only the
// faithful replay (recorded load, variant 0, open loop) of a
// streamable log.
func ExecuteStream(src *trace.StreamSource, rs RunSpec) ([]RunResult, error) {
	if !src.Streamable() {
		return nil, fmt.Errorf("runspec: trace %s is not streamable (records out of order, or feedback references); use the materialized path", src.Path)
	}
	if rs.Rep != 0 {
		return nil, fmt.Errorf("runspec: streaming replay cannot resample variants (rep %d); use the materialized path", rs.Rep)
	}
	if rs.Sim.Feedback {
		return nil, fmt.Errorf("runspec: streaming replay cannot run the closed loop; use the materialized path")
	}
	for _, l := range rs.Loads {
		if l != 0 {
			return nil, fmt.Errorf("runspec: streaming replay cannot rescale load to %g; use the materialized path", l)
		}
	}
	return executeStream(rs, src)
}

// executeStream runs the spec's load points (all faithful-replay
// points, by streamSource's gate) through sim.RunStream.
func executeStream(rs RunSpec, src *trace.StreamSource) ([]RunResult, error) {
	opts, err := rs.Sim.Options()
	if err != nil {
		return nil, err
	}
	loads := rs.Loads
	if len(loads) == 0 {
		loads = []float64{0}
	}
	out := make([]RunResult, 0, len(loads))
	for _, load := range loads {
		r, err := streamLoad(rs, src, opts)
		if err != nil {
			return nil, err
		}
		r.Load = load
		out = append(out, r)
	}
	return out, nil
}

// streamLoad replays the trace once. The reader's Close is deferred so
// that its decoder goroutine stops even when the scheduler or the
// collector panics (runCell recovers such panics and carries on).
func streamLoad(rs RunSpec, src *trace.StreamSource, opts sim.Options) (res RunResult, err error) {
	s, err := sched.Build(rs.Scheduler)
	if err != nil {
		return res, err
	}
	col := metrics.NewCollector(rs.Metrics.collectorOptions(s.Name(), src.Name, src.MaxNodes()))
	opts.Observers = []sim.Observer{col}
	opts.SampleEvery = rs.Metrics.SampleEvery
	opts.DiscardOutcomes = true
	jr, err := src.Stream(rs.Jobs)
	if err != nil {
		return res, err
	}
	defer func() {
		if cerr := jr.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("runspec: trace %s: %w", src.Path, cerr)
		}
	}()
	// The counting wrapper recovers WorkloadInfo (job count, offered
	// load over the replayed prefix) from the jobs that actually flow
	// past, since no workload object exists to ask.
	cs := &countingStream{js: jr}
	if _, err := sim.RunStream(src.Name, src.MaxNodes(), cs, s, opts); err != nil {
		return res, fmt.Errorf("runspec: simulating %s: %w", rs.Scheduler, err)
	}
	return RunResult{
		Workload: WorkloadInfo{
			Name: src.Name, Jobs: cs.jobs, Nodes: src.MaxNodes(),
			OfferedLoad: cs.offeredLoad(src.MaxNodes()),
		},
		Report: col.Report(),
		Series: col.Series(),
	}, nil
}

// countingStream passes jobs through while accumulating the aggregate
// figures WorkloadInfo reports, mirroring core.Workload.TotalArea/Span.
type countingStream struct {
	js    core.JobStream
	jobs  int
	area  int64
	first int64
	last  int64
}

func (c *countingStream) Next() (*core.Job, error) {
	j, err := c.js.Next()
	if j != nil {
		if c.jobs == 0 {
			c.first = j.Submit
		}
		c.jobs++
		c.area += int64(j.Size) * j.Runtime
		if end := j.Submit + j.Runtime; end > c.last {
			c.last = end
		}
	}
	return j, err
}

func (c *countingStream) offeredLoad(nodes int) float64 {
	span := c.last - c.first
	if span <= 0 || nodes == 0 {
		return 0
	}
	return float64(c.area) / (float64(span) * float64(nodes))
}
