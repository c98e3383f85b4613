package main

import (
	"testing"
	"time"

	"parsched/internal/core"
	"parsched/internal/metrics"
	"parsched/internal/sched"
)

// TestTracedReportEqualsUntraced pins that the wrappers only observe:
// on both replay workloads the traced run's report is the untraced
// one, so a wrapper that dropped or altered a call shows up here.
// Neither replay samples the queue, so hiding sched.QueueReporter would
// not; TestWrapSchedulerKeepsOptionalInterfaces covers that.
func TestTracedReportEqualsUntraced(t *testing.T) {
	swf, err := newSWFStream(t.TempDir(), 3, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		w    workload
	}{
		{"swf_stream_easy", swf},
		{"lublin_cons_windows", &lublinWindows{seed: 3, jobs: 10_000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain, err := tc.w.run(false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := tc.w.run(true)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*result{plain, traced} {
				if len(r.failures) > 0 {
					t.Errorf("failures: %v", r.failures)
				}
			}
			if plain.output != traced.output {
				t.Errorf("traced report differs:\n untraced %+v\n traced   %+v", plain.output, traced.output)
			}
			rep := plain.output.(metrics.Report)
			if got := traced.layers["sched.finish_calls"]; got != float64(rep.Jobs) {
				t.Errorf("sched.finish_calls = %v, want one per job (%d)", got, rep.Jobs)
			}
			if got := traced.layers["metrics.observe_calls"]; got != float64(rep.Jobs) {
				t.Errorf("metrics.observe_calls = %v, want one per job (%d)", got, rep.Jobs)
			}
			if self := traced.layers["sim.self_s"]; self <= 0 || self >= traced.work.Seconds() {
				t.Errorf("sim.self_s = %v outside (0, replay %v)", self, traced.work)
			}
		})
	}
}

// TestLublinBacklogBounded runs the windowed workload at two lengths:
// both must drain within the length-independent mean-wait bound, and
// quadrupling the trace must not grow mean wait by half, as it does
// under a calendar denser than the longest estimate.
func TestLublinBacklogBounded(t *testing.T) {
	var waits []float64
	for _, jobs := range []int{10_000, 40_000} {
		r, err := (&lublinWindows{seed: defaultSeed, jobs: jobs}).run(false)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.failures) > 0 {
			t.Fatalf("%d jobs: %v", jobs, r.failures)
		}
		waits = append(waits, r.output.(metrics.Report).Wait.Mean)
	}
	if waits[1] > 1.5*waits[0] {
		t.Errorf("mean wait grew from %.0f s to %.0f s as the trace grew", waits[0], waits[1])
	}
}

type noQueue struct{}

func (noQueue) Name() string                      { return "noqueue" }
func (noQueue) OnSubmit(sched.Context, *core.Job) {}
func (noQueue) OnFinish(sched.Context, *core.Job) {}
func (noQueue) OnChange(sched.Context)            {}

// TestWrapSchedulerKeepsOptionalInterfaces checks the wrapper exposes
// sched.QueueReporter exactly when the wrapped scheduler does.
func TestWrapSchedulerKeepsOptionalInterfaces(t *testing.T) {
	var tr tracer
	w, _ := wrapScheduler(sched.NewEASY(), &tr)
	if _, ok := w.(sched.QueueReporter); !ok {
		t.Error("wrapped EASY lost sched.QueueReporter")
	}
	w, _ = wrapScheduler(noQueue{}, &tr)
	if _, ok := w.(sched.QueueReporter); ok {
		t.Error("wrapper added sched.QueueReporter to a scheduler without one")
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h histogram
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, tc := range []struct{ q, want float64 }{{0.5, 500e3}, {0.99, 990e3}} {
		if got := h.quantile(tc.q); got < 0.875*tc.want || got > 1.125*tc.want {
			t.Errorf("quantile(%v) = %v, want within one bucket of %v", tc.q, got, tc.want)
		}
	}
	for ns := uint64(1); ns < 1<<20; ns = ns*3/2 + 1 {
		i := histIndex(ns)
		if lo, hi := histLower(i), histLower(i+1); float64(ns) < lo || float64(ns) >= hi {
			t.Fatalf("%d ns in bucket %d = [%v, %v)", ns, i, lo, hi)
		}
	}
}

func TestStealShare(t *testing.T) {
	a, ok := parseCPULine("cpu  1000 10 200 5000 40 5 5 20 0 0")
	if !ok || a != (cpuTicks{busy: 1220, steal: 20}) {
		t.Fatalf("parse = %+v, %v", a, ok)
	}
	b, _ := parseCPULine("cpu  1810 10 280 6000 40 5 15 120 0 0")
	if got := stealShare(a, b); got != 0.1 {
		t.Fatalf("stealShare = %v, want 0.1 (100 stolen of 1000 wanted ticks)", got)
	}
	for _, line := range []string{"cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3 4 5 6 7", "cpu 1 2 3 x 5 6 7 8"} {
		if _, ok := parseCPULine(line); ok {
			t.Errorf("parseCPULine(%q) accepted a malformed line", line)
		}
	}
}
