package parsched

// Streaming-replay benchmarks: a synthesized million-job SWF log
// replayed through the pull-based pipeline (trace.OpenStream →
// sim.RunStream) with sketch-mode metrics. Each op covers the whole
// pipeline — statistics pass, cleaning scan, simulation — so ns/op is
// end-to-end trace-to-report latency. B/op and allocs/op are the
// memory story: the pipeline allocates a small constant per job
// (job struct, outcome entry, arrival event) and retains none of it,
// so allocs/op stays a few multiples of the job count however long
// the trace is, and peak residency is bounded by the jobs in flight.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"parsched/internal/metrics"
	"parsched/internal/sched"
	"parsched/internal/sim"
	"parsched/internal/workload/trace"
)

// streamBenchJobs is sized so one op replays a full million-job log —
// the scale the streaming pipeline exists for.
const streamBenchJobs = 1_000_000

// writeSyntheticSWF generates a clean, sorted, feedback-free SWF log:
// the shape ScanStats certifies streamable. Sizes and runtimes come
// from a fixed LCG so every run benchmarks the same log; the arrival
// spacing targets a moderate offered load on 128 nodes so the queue
// stays realistic rather than degenerate.
func writeSyntheticSWF(path string, jobs int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, ";Computer: stream-bench")
	fmt.Fprintln(w, ";MaxNodes: 128")
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % n
	}
	var submit int64
	for i := 1; i <= jobs; i++ {
		size := 1 + next(32)
		runtime := 60 + next(1200)
		estimate := runtime + next(runtime+1)
		// Mean job area is ~16.5 procs × ~660 s ≈ 10.9k proc·s; a mean
		// gap of ~122 s puts the offered load near 0.7 on 128 nodes —
		// busy, but not a queue that grows with the trace.
		submit += int64(60 + next(125))
		fmt.Fprintf(w, "%d %d -1 %d %d -1 -1 %d %d -1 1 %d 1 1 1 1 -1 -1\n",
			i, submit, runtime, size, size, estimate, 1+next(40))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// streamBenchLog synthesizes the benchmark log once per benchmark
// process, outside any timer.
var streamBenchPath string

func streamBenchLog(b *testing.B) string {
	b.Helper()
	if streamBenchPath != "" {
		return streamBenchPath
	}
	dir, err := os.MkdirTemp("", "parsched-stream-bench")
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(dir, "million.swf")
	if err := writeSyntheticSWF(path, streamBenchJobs); err != nil {
		b.Fatal(err)
	}
	streamBenchPath = path
	return path
}

// replayStream runs the full streaming pipeline once.
func replayStream(b *testing.B, path string, s sched.Scheduler) {
	b.Helper()
	src, err := trace.OpenStream(path)
	if err != nil {
		b.Fatal(err)
	}
	if !src.Streamable() {
		b.Fatal("synthetic log must be streamable")
	}
	jr, err := src.Stream(0)
	if err != nil {
		b.Fatal(err)
	}
	defer jr.Close()
	col := metrics.NewCollector(metrics.CollectorOptions{
		Scheduler: s.Name(), Workload: src.Name, Procs: src.MaxNodes(),
		Sketch: true, // O(1) metric state; exact mode would retain 3 floats/job
	})
	res, err := sim.RunStream(src.Name, src.MaxNodes(), jr, s, sim.Options{
		DiscardOutcomes: true,
		Observers:       []sim.Observer{col},
	})
	if err != nil {
		b.Fatal(err)
	}
	rep := col.Report()
	if rep.Jobs != streamBenchJobs || res.NeverSubmitted != 0 {
		b.Fatalf("replay lost jobs: reported %d, never-submitted %d", rep.Jobs, res.NeverSubmitted)
	}
}

// BenchmarkStreamReplay1M is the headline number: one million jobs,
// EASY backfilling, full pipeline per op. Divide allocs/op by 1e6 for
// the per-job allocation constant.
func BenchmarkStreamReplay1M(b *testing.B) {
	path := streamBenchLog(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayStream(b, path, sched.NewEASY())
	}
}

// BenchmarkStreamReplay1MCons replays the same log through
// conservative backfilling (every queued job holds a reservation — the
// heavier profile workload).
func BenchmarkStreamReplay1MCons(b *testing.B) {
	path := streamBenchLog(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayStream(b, path, sched.NewConservative())
	}
}

// BenchmarkOpenStream1M times pass 1 alone: the statistics scan
// OpenStream runs over the million-job log.
func BenchmarkOpenStream1M(b *testing.B) {
	path := streamBenchLog(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := trace.OpenStream(path)
		if err != nil {
			b.Fatal(err)
		}
		if src.JobCount() != streamBenchJobs {
			b.Fatalf("statistics pass counted %d jobs", src.JobCount())
		}
	}
}

// BenchmarkJobReaderDrain1M times pass 2 alone: a JobReader decoding
// the million-job log into core.Jobs, drained with no simulator.
func BenchmarkJobReaderDrain1M(b *testing.B) {
	path := streamBenchLog(b)
	src, err := trace.OpenStream(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jr, err := src.Stream(0)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			j, err := jr.Next()
			if err != nil {
				b.Fatal(err)
			}
			if j == nil {
				break
			}
			n++
		}
		if err := jr.Close(); err != nil {
			b.Fatal(err)
		}
		if n != streamBenchJobs {
			b.Fatalf("drained %d jobs", n)
		}
	}
}
