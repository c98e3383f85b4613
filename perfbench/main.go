// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload from a seed for a fixed time, checks the
// simulated outputs, and prints its metrics, the last line being one
// JSON object:
//
//	perfbench --workload swf_stream_easy --seed 1999 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced
// iterations. With --trace 1 it alternates untraced and traced
// iterations and reports the per-layer metrics, measured from outside
// the program by wrapping the interfaces the simulator accepts (see
// tracer.go), plus the tracing overhead. Every time is discounted by
// the CPU steal the host reports across its iteration (see steal.go).
// README.md gives the reasons for each workload and the layer budget.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// buildDir is where the benchmark keeps its binary and scratch inputs,
// relative to the checkout root it runs from.
const buildDir = ".bench_build"

type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"allocs_per_job", "count"},
}

var perLayer = []metricSpec{
	{"trace.open_s", "s"},
	{"trace.next_calls", "count"},
	{"trace.next_busy_s", "s"},
	{"trace.next_share", "ratio"},
	{"trace.mb_per_s", "MB/s"},
	{"sched.submit_calls", "count"},
	{"sched.finish_calls", "count"},
	{"sched.change_calls", "count"},
	{"sched.busy_s", "s"},
	{"sched.share", "ratio"},
	{"sched.call_ns_p50", "ns"},
	{"sched.call_ns_p99", "ns"},
	{"sched.calls_per_start", "ratio"},
	{"metrics.observe_calls", "count"},
	{"metrics.busy_s", "s"},
	{"metrics.share", "ratio"},
	{"metrics.observe_ns_p50", "ns"},
	{"sim.events", "count"},
	{"sim.self_s", "s"},
	{"sim.share", "ratio"},
	{"sim.self_ns_per_event", "ns"},
	{"model.generate_s", "s"},
	{"experiments.cells", "count"},
	{"experiments.cell_s_p50", "s"},
	{"experiments.cell_s_max", "s"},
	{"experiments.pool_busy_share", "ratio"},
	{"runtime.bytes_per_job", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"tracing.overhead_share", "ratio"},
	{"host.steal_share", "ratio"},
}

var workloadNames = []string{"swf_stream_easy", "lublin_cons_windows", "battery"}

func newWorkload(name string, seed int64, dir string) (workload, error) {
	switch name {
	case "swf_stream_easy":
		return newSWFStream(dir, seed, swfJobs)
	case "lublin_cons_windows":
		return &lublinWindows{seed: seed, jobs: lublinJobs}, nil
	case "battery":
		return newBattery(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// iteration is one measured run of a workload.
type iteration struct {
	*result
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
	// steal is the share of wanted CPU time the hypervisor took during
	// the iteration; setup, work and wall are already discounted by it,
	// and rawWall is the undiscounted wall time.
	steal   float64
	rawWall time.Duration
}

func measure(w workload, traced bool) (*iteration, error) {
	runtime.GC() // start every iteration from the same clean heap
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, ok0 := readCPUTicks()
	r, err := w.run(traced)
	cpu1, ok1 := readCPUTicks()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	steal, rawWall := 0.0, r.wall
	if ok0 && ok1 {
		steal = stealShare(cpu0, cpu1)
	}
	for _, d := range []*time.Duration{&r.setup, &r.work, &r.wall} {
		*d = time.Duration(float64(*d) * (1 - steal))
	}
	return &iteration{
		result:   r,
		steal:    steal,
		rawWall:  rawWall,
		mallocs:  after.Mallocs - before.Mallocs,
		bytes:    after.TotalAlloc - before.TotalAlloc,
		gcCycles: after.NumGC - before.NumGC,
		gcPause:  time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	seed := flag.Int64("seed", defaultSeed, "seed every input is generated from")
	seconds := flag.Int("seconds", 10, "how long to keep iterating")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced iterations")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(buildDir, "inputs-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	w, err := newWorkload(*name, *seed, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	traced := *traceFlag == 1
	var plain, tracedIters []*iteration
	out := output{Metrics: map[string]metricValue{}}
	var first any
	record := func(it *iteration, kind string) {
		out.Attempted += it.attempted
		failures := it.failures
		// Outputs must not depend on tracing, or on which iteration
		// produced them: the run is deterministic for a seed.
		if first == nil {
			first = it.output
		} else if it.output != first {
			failures = append(failures, fmt.Sprintf("%s iteration's output differs from the first iteration's", kind))
		}
		if len(failures) > 0 {
			out.Failed += max(1, min(len(failures), it.attempted))
			for _, f := range failures {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", *name, f)
			}
		}
	}
	// Iterate while the next iteration, if it takes as long as the last,
	// ends by the deadline; there is always at least one.
	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	var last time.Duration
	for len(plain) == 0 || !time.Now().Add(last).After(deadline) {
		begin := time.Now()
		it, err := measure(w, false)
		if err == nil {
			record(it, "untraced")
			plain = append(plain, it)
			if traced {
				it, err = measure(w, true)
				if err == nil {
					record(it, "traced")
					tracedIters = append(tracedIters, it)
				}
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
			out.Attempted++
			out.Failed++
			break
		}
		last = time.Since(begin)
	}

	specs := endToEnd
	if traced {
		perLayerValues(out.Metrics, plain, tracedIters)
		specs = perLayer
	} else {
		endToEndValues(out.Metrics, plain)
	}
	out.Correct = out.Failed == 0
	fmt.Printf("workload %s seed %d: %d untraced, %d traced iterations\n", *name, *seed, len(plain), len(tracedIters))
	for _, s := range specs {
		fmt.Printf("  %-28s %16.6f %s\n", s.name, out.Metrics[s.name].Value, s.unit)
	}
	fmt.Printf("  %-28s %16.6f s, median, steal not discounted\n", "wall_s undiscounted", medianOf(plain, func(it *iteration) float64 { return it.rawWall.Seconds() }))
	fmt.Printf("  %-28s %16.6f ratio, median\n", "steal_share", medianOf(plain, func(it *iteration) float64 { return it.steal }))
	fmt.Printf("  %-28s %16.6f (%d of %d operations failed)\n", "error_rate",
		float64(out.Failed)/float64(max(out.Attempted, 1)), out.Failed, out.Attempted)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// endToEndValues reports medians over the untraced iterations.
func endToEndValues(m map[string]metricValue, its []*iteration) {
	pick := func(f func(*iteration) float64) float64 { return medianOf(its, f) }
	values := map[string]float64{
		"wall_s":         pick(func(it *iteration) float64 { return it.wall.Seconds() }),
		"setup_s":        pick(func(it *iteration) float64 { return it.setup.Seconds() }),
		"jobs_per_s":     pick(func(it *iteration) float64 { return ratio(float64(it.jobs), it.work.Seconds()) }),
		"allocs_per_job": pick(func(it *iteration) float64 { return ratio(float64(it.mallocs), float64(it.jobs)) }),
	}
	for _, s := range endToEnd {
		m[s.name] = metricValue{Value: values[s.name], Unit: s.unit}
	}
}

// perLayerValues reports medians of the traced iterations' layer values;
// a layer the workload does not exercise reads 0. Runtime counters come
// from the untraced iterations, and the tracing overhead compares the
// timed bodies of the two kinds.
func perLayerValues(m map[string]metricValue, plain, traced []*iteration) {
	values := map[string]float64{}
	for _, s := range perLayer {
		xs := make([]float64, 0, len(traced))
		for _, it := range traced {
			xs = append(xs, it.layers[s.name])
		}
		values[s.name] = median(xs)
	}
	perJob := func(f func(*iteration) float64) float64 { return medianOf(plain, f) }
	values["runtime.bytes_per_job"] = perJob(func(it *iteration) float64 { return ratio(float64(it.bytes), float64(it.jobs)) })
	values["runtime.gc_cycles"] = perJob(func(it *iteration) float64 { return float64(it.gcCycles) })
	values["runtime.gc_pause_s"] = perJob(func(it *iteration) float64 { return it.gcPause.Seconds() })
	values["host.steal_share"] = perJob(func(it *iteration) float64 { return it.steal })
	work := func(its []*iteration) float64 {
		return medianOf(its, func(it *iteration) float64 { return it.work.Seconds() })
	}
	if len(traced) > 0 {
		values["tracing.overhead_share"] = ratio(work(traced), work(plain)) - 1
	}
	for _, s := range perLayer {
		m[s.name] = metricValue{Value: values[s.name], Unit: s.unit}
	}
}

// medianOf returns the median of f over its.
func medianOf(its []*iteration, f func(*iteration) float64) float64 {
	xs := make([]float64, len(its))
	for i, it := range its {
		xs[i] = f(it)
	}
	return median(xs)
}

// median returns the median of xs (0 for none), leaving xs unsorted.
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

// ratio is a/b, or 0 when b is 0: a broken run can count no jobs or
// events, and its result must still encode as JSON.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
