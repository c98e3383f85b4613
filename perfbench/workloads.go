package main

// The three workloads. Each iteration builds its own scheduler and
// collector, so iterations are independent; inputs that are costly to
// write (the SWF log) are made once per process from the seed.

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"parsched"
	"parsched/internal/core"
	"parsched/internal/experiments"
	"parsched/internal/metrics"
	"parsched/internal/model"
	"parsched/internal/model/lublin"
	"parsched/internal/outage"
	"parsched/internal/sched"
	"parsched/internal/sim"
	"parsched/internal/stats"
	"parsched/internal/workload/trace"
)

// result is what one iteration of a workload produced.
type result struct {
	// setup is host time before the first simulated event; work is the
	// timed body (the replay, or the battery pass); wall is what a user
	// waits for one iteration.
	setup, work, wall time.Duration
	// jobs is the job count jobs_per_s and allocs_per_job divide by.
	jobs int
	// attempted counts operations (one per replay, one per battery
	// cell); failures lists what went wrong with them.
	attempted int
	failures  []string
	// output is the simulated result the traced and untraced runs must
	// agree on: the metrics.Report of a replay, the table digest of a
	// battery pass.
	output any
	// layers holds the per-layer metrics of a traced iteration.
	layers map[string]float64
}

func (r *result) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

type workload interface {
	// run performs one iteration, through the tracing wrappers when
	// traced is set. An error means the iteration could not run.
	run(traced bool) (*result, error)
}

// ---------------------------------------------------------------------------
// swf_stream_easy

// swfJobs is the log length: the million-job scale the streaming
// pipeline exists for, as in BenchmarkStreamReplay1M.
const swfJobs = 1_000_000

type swfStream struct {
	path  string
	bytes int64
	seed  int64
	jobs  int
}

func newSWFStream(dir string, seed int64, jobs int) (*swfStream, error) {
	path := filepath.Join(dir, "synthetic.swf")
	if err := writeSyntheticSWF(path, jobs, seed); err != nil {
		return nil, fmt.Errorf("write synthetic log: %w", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	return &swfStream{path: path, bytes: fi.Size(), seed: seed, jobs: jobs}, nil
}

// writeSyntheticSWF writes a clean, sorted, feedback-free SWF log of
// the same shape as the repository's BenchmarkStreamReplay1M log:
// sizes 1–32, runtimes 60–1259 s, estimates up to twice the runtime,
// and arrivals every 60–184 s, an offered load near 0.7 on 128 nodes,
// so the queue stays short and does not grow with the log. The LCG
// state starts from the seed; seed 0 gives that benchmark's exact log.
func writeSyntheticSWF(path string, jobs int, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, ";Computer: stream-bench")
	fmt.Fprintln(w, ";MaxNodes: 128")
	rng := uint64(0x9e3779b97f4a7c15) + uint64(seed)*0xbf58476d1ce4e5b9
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % n
	}
	var submit int64
	for i := 1; i <= jobs; i++ {
		size := 1 + next(32)
		runtime := 60 + next(1200)
		estimate := runtime + next(runtime+1)
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

func (w *swfStream) run(traced bool) (*result, error) {
	start := time.Now()
	src, err := trace.OpenStream(w.path)
	if err != nil {
		return nil, err
	}
	setup := time.Since(start)
	if !src.Streamable() {
		return nil, fmt.Errorf("synthetic log is not streamable")
	}
	jr, err := src.Stream(0)
	if err != nil {
		return nil, err
	}
	defer jr.Close()
	s, err := sched.New("easy")
	if err != nil {
		return nil, err
	}
	col := metrics.NewCollector(metrics.CollectorOptions{
		Scheduler: s.Name(), Workload: src.Name, Procs: src.MaxNodes(),
		Sketch: true, // O(1) metric state, as a million-job replay needs
	})
	var (
		t   tracer
		js  core.JobStream = jr
		obs sim.Observer   = col
		ts  *timedScheduler
		to  *timedObserver
	)
	if traced {
		js = &timedStream{inner: jr, t: &t}
		s, ts = wrapScheduler(s, &t)
		to = &timedObserver{inner: col, t: &t}
		obs = to
	}
	replayStart := time.Now()
	res, err := sim.RunStream(src.Name, src.MaxNodes(), js, s, sim.Options{
		DiscardOutcomes: true,
		Observers:       []sim.Observer{obs},
	})
	replay := time.Since(replayStart)
	if err != nil {
		return nil, err
	}
	rep := col.Report()
	r := &result{
		setup: setup, work: replay, wall: time.Since(start),
		jobs: w.jobs, attempted: 1, output: rep,
	}
	checkReplay(r, rep, res.NeverSubmitted, w.jobs)
	if w.seed == defaultSeed && w.jobs == swfJobs {
		checkExpected(r, rep, expectedSWF)
	}
	if traced {
		r.layers = replayLayers(&t, ts, to, replay, res.Events)
		r.layers["trace.open_s"] = setup.Seconds()
		// Both passes read the whole file: the statistics pass inside
		// OpenStream and the cleaning scan behind Next.
		ingest := setup + t.busy[layerTrace]
		r.layers["trace.mb_per_s"] = ratio(2*float64(w.bytes)/1e6, ingest.Seconds())
	}
	return r, nil
}

// ---------------------------------------------------------------------------
// lublin_cons_windows

// The Lublin workload and its calendars. Reservations are spaced wider
// than the longest runtime estimate the model can produce (MaxRuntime,
// 36 h). With a denser calendar the backlog grows with the trace: the
// ablation benchmark's 4-hourly one, scaled to 512 nodes, starves wide
// jobs under a windowed conservative backfiller, and even a daily
// 64-processor one lets mean wait grow with trace length. At this
// spacing mean wait stays flat and replay time is linear in the job
// count; run guards that with lublinMaxMeanWait, and README.md has the
// measurements.
const (
	lublinNodes      = 512
	lublinJobs       = 100_000
	lublinLoad       = 0.7
	lublinEstimate   = 2
	lublinMaxRuntime = 36 * 3600

	resvPeriod = 2 * 86400 // > lublinMaxRuntime
	resvProcs  = 64
	resvLength = 4 * 3600

	// lublinMaxMeanWait bounds mean wait independently of trace
	// length: a backlog that grows with the trace breaks it.
	lublinMaxMeanWait = 86400
)

type lublinWindows struct {
	seed int64
	jobs int
}

// lublinInputs generates the workload, the outage log and the
// reservation calendar from the seed.
func lublinInputs(seed int64, jobs int) (*core.Workload, *outage.Log, []sched.Reservation) {
	w := lublin.Default().Generate(model.Config{
		MaxNodes: lublinNodes, Jobs: jobs, Seed: seed, Load: lublinLoad,
		EstimateFactor: lublinEstimate, MaxRuntime: lublinMaxRuntime,
	})
	// The model calibrates its arrival rate from a 3,000-job sample, so
	// the load it delivers varies by several percent from seed to seed,
	// and a windowed backfiller's cost follows queue depth steeply.
	// Rescaling to the exact target lets the seed vary the job mix, not
	// the load.
	w.ScaleLoad(lublinLoad / w.OfferedLoad())
	last := w.Jobs[len(w.Jobs)-1].Submit
	olog := outage.Generate(outage.GeneratorConfig{
		Nodes:             lublinNodes,
		Horizon:           last + 7*86400,
		MTBF:              stats.Exponential{Lambda: 1.0 / (24 * 3600)},
		Repair:            stats.LogNormal{Mu: 7.5, Sigma: 0.7}, // ~30 min repairs
		FailureNodes:      stats.Uniform{Lo: 1, Hi: 5},
		MaintenanceEvery:  14 * 86400,
		MaintenanceLength: 4 * 3600,
		MaintenanceLead:   86400,
	}, seed+1)
	var resvs []sched.Reservation
	for i, start := int64(1), int64(resvPeriod); start < last; i, start = i+1, start+resvPeriod {
		resvs = append(resvs, sched.Reservation{
			ID: i, Procs: resvProcs, Start: start, End: start + resvLength,
			Announced: start - resvPeriod,
		})
	}
	return w, olog, resvs
}

func (l *lublinWindows) run(traced bool) (*result, error) {
	start := time.Now()
	w, olog, resvs := lublinInputs(l.seed, l.jobs)
	setup := time.Since(start)
	s, err := sched.New("cons(window)")
	if err != nil {
		return nil, err
	}
	col := metrics.NewCollector(metrics.CollectorOptions{
		Scheduler: s.Name(), Workload: w.Name, Procs: w.MaxNodes,
	})
	var (
		t   tracer
		obs sim.Observer = col
		ts  *timedScheduler
		to  *timedObserver
	)
	if traced {
		s, ts = wrapScheduler(s, &t)
		to = &timedObserver{inner: col, t: &t}
		obs = to
	}
	replayStart := time.Now()
	res, err := sim.Run(w, s, sim.Options{
		Outages:         olog,
		Reservations:    resvs,
		DiscardOutcomes: true,
		Observers:       []sim.Observer{obs},
	})
	replay := time.Since(replayStart)
	if err != nil {
		return nil, err
	}
	rep := col.Report()
	r := &result{
		setup: setup, work: replay, wall: time.Since(start),
		jobs: l.jobs, attempted: 1, output: rep,
	}
	checkReplay(r, rep, res.NeverSubmitted, l.jobs)
	if rep.Wait.Mean > lublinMaxMeanWait {
		r.fail("mean wait %.0f s exceeds %d s: the backlog grows with the trace", rep.Wait.Mean, lublinMaxMeanWait)
	}
	if l.seed == defaultSeed && l.jobs == lublinJobs {
		checkExpected(r, rep, expectedLublin)
	}
	if traced {
		r.layers = replayLayers(&t, ts, to, replay, res.Events)
		r.layers["model.generate_s"] = setup.Seconds()
	}
	return r, nil
}

// ---------------------------------------------------------------------------
// battery

const (
	// batteryReps averages each pass over twelve derived seeds: one
	// replication's serial pass time moves by about ±10% from one seed
	// to the next, and with six the pass time still spread 9% over
	// five seeds.
	batteryReps = 12
	// batteryWorkers is one. On a 2-CPU shared host a 2-worker pool's
	// pass time spread over 25% between passes of one seed, against 9%
	// serially: two workers and the garbage collector contend for the
	// two cores.
	batteryWorkers = 1
	// substrateLoad is the load E5 and E6 generate their substrate at.
	substrateLoad = 0.7
	// substrateRounds is how often one iteration times the substrate
	// generation; its median is the iteration's setup.
	substrateRounds = 20
)

type battery struct {
	cfg experiments.Config
}

func newBattery(seed int64) *battery {
	cfg := experiments.Default()
	cfg.Seed = seed
	return &battery{cfg: cfg}
}

// run times one battery pass. The battery generates its workloads
// inside each cell, out of the caller's reach, so its setup is measured
// beside it: the median time to generate one default substrate
// (lublin99 at the battery's scale and seed), which every comparison
// cell repeats before its first event.
func (b *battery) run(traced bool) (*result, error) {
	gen := make([]float64, substrateRounds)
	for i := range gen {
		start := time.Now()
		lublin.Default().Generate(model.Config{
			MaxNodes: b.cfg.Nodes, Jobs: b.cfg.Jobs, Seed: b.cfg.Seed, Load: substrateLoad,
		})
		gen[i] = time.Since(start).Seconds()
	}
	setup := time.Duration(median(gen) * float64(time.Second))

	start := time.Now()
	br := parsched.RunBatteryConfig(context.Background(), b.cfg, experiments.BatchOptions{
		Parallel: batteryWorkers, Reps: batteryReps,
	})
	wall := time.Since(start)

	r := &result{
		setup: setup, work: wall, wall: wall,
		jobs:      len(br.Cells) * b.cfg.Jobs,
		attempted: len(br.Cells),
	}
	for _, c := range br.Failed() {
		r.fail("cell %s rep %d: %s", c.ID, c.Rep, c.Err)
	}
	if want := len(experiments.All()) * batteryReps; len(br.Cells) != want {
		r.fail("battery ran %d cells, want %d", len(br.Cells), want)
	}
	digest := tableDigest(br)
	r.output = digest
	if b.cfg.Seed == defaultSeed && digest != expectedBatteryDigest {
		r.fail("battery table digest %s, want %s", digest, expectedBatteryDigest)
	}
	if traced {
		cells := make([]float64, len(br.Cells))
		var busy time.Duration
		for i, c := range br.Cells {
			cells[i] = c.Elapsed.Seconds()
			busy += c.Elapsed
		}
		r.layers = map[string]float64{
			"experiments.cells":           float64(len(br.Cells)),
			"experiments.cell_s_p50":      median(cells),
			"experiments.cell_s_max":      maxOf(cells),
			"experiments.pool_busy_share": busy.Seconds() / (batteryWorkers * wall.Seconds()),
			"model.generate_s":            setup.Seconds(),
		}
	}
	return r, nil
}

// tableDigest hashes every cell's formatted tables and typed metrics
// in cell order. Elapsed times are left out, so equal digests mean
// equal simulated output. Typed metrics are hashed to 12 significant
// digits, not all 17: E8 sums its per-site localBSLD in map order, so
// that value can differ in the last bit between two runs of one seed.
func tableDigest(br *experiments.BatchResult) string {
	h := sha256.New()
	for _, c := range br.Cells {
		fmt.Fprintf(h, "%s/%d seed=%d\n", c.ID, c.Rep, c.Seed)
		for _, t := range c.Tables {
			h.Write([]byte(t.String()))
			for _, m := range t.Metrics {
				fmt.Fprintf(h, "%s %s %.12g\n", m.LabelKey(), m.Name, m.Value)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ---------------------------------------------------------------------------
// shared checks and layer arithmetic

// checkReplay checks the invariants that hold on every seed: every job
// generated reached the collector, none was cut off before arrival,
// and the replay drained.
func checkReplay(r *result, rep metrics.Report, neverSubmitted, jobs int) {
	if rep.Jobs != jobs {
		r.fail("collector saw %d jobs, want %d", rep.Jobs, jobs)
	}
	if neverSubmitted != 0 {
		r.fail("%d jobs never submitted", neverSubmitted)
	}
	if rep.Unfinished != 0 {
		r.fail("%d jobs unfinished", rep.Unfinished)
	}
}

// replayLayers derives the per-layer metrics of a traced replay. sim
// self time (sim, des and cluster together) is what the replay spent
// outside the three wrapped interfaces.
func replayLayers(t *tracer, ts *timedScheduler, to *timedObserver, replay time.Duration, events uint64) map[string]float64 {
	share := func(d time.Duration) float64 { return ratio(d.Seconds(), replay.Seconds()) }
	self := replay
	for _, b := range t.busy {
		self -= b
	}
	schedCalls := ts.submits + ts.finishes + ts.changes
	return map[string]float64{
		"trace.next_calls":       float64(t.calls[layerTrace]),
		"trace.next_busy_s":      t.busy[layerTrace].Seconds(),
		"trace.next_share":       share(t.busy[layerTrace]),
		"sched.submit_calls":     float64(ts.submits),
		"sched.finish_calls":     float64(ts.finishes),
		"sched.change_calls":     float64(ts.changes),
		"sched.busy_s":           t.busy[layerSched].Seconds(),
		"sched.share":            share(t.busy[layerSched]),
		"sched.call_ns_p50":      t.hist[layerSched].quantile(0.50),
		"sched.call_ns_p99":      t.hist[layerSched].quantile(0.99),
		"sched.calls_per_start":  ratio(float64(schedCalls), float64(to.starts)),
		"metrics.observe_calls":  float64(t.calls[layerMetrics]),
		"metrics.busy_s":         t.busy[layerMetrics].Seconds(),
		"metrics.share":          share(t.busy[layerMetrics]),
		"metrics.observe_ns_p50": t.hist[layerMetrics].quantile(0.50),
		"sim.events":             float64(events),
		"sim.self_s":             self.Seconds(),
		"sim.share":              share(self),
		"sim.self_ns_per_event":  ratio(float64(self.Nanoseconds()), float64(events)),
	}
}
