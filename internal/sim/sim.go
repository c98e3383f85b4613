// Package sim drives machine-scheduler simulations: it replays a
// workload (open loop, or closed loop honouring the standard format's
// preceding-job/think-time feedback fields) against a scheduler on a
// simulated machine, optionally injecting the outage log of Section 2.2
// (killing jobs on failed nodes and restarting them, exactly the IBM SP
// behaviour the paper describes) and advance-reservation streams for
// the metacomputing experiments.
//
// The simulator owns time (internal/des), resources
// (internal/cluster), and job lifecycles; the scheduler plugs in via
// the internal/sched interfaces. All runs are deterministic. The
// single-machine entry points are Run, for a materialized workload, and
// RunStream, for a pull-based job stream; both replay through one
// driver, whose arrival pump keeps one arrival event in flight and
// whose outcome map is pruned under Options.DiscardOutcomes. Only Run
// supports feedback, since a closed loop needs the dependent jobs in
// hand. Multi-machine grids assemble Instances directly (see
// internal/meta).
package sim

import (
	"fmt"

	"parsched/internal/core"
	"parsched/internal/des"
	"parsched/internal/metrics"
	"parsched/internal/outage"
	"parsched/internal/sched"
)

// MaxRestarts caps outage-driven restarts per job before the simulator
// drops the job as permanently killed.
const MaxRestarts = 100

// reservationOwner offsets reservation IDs into their own owner space
// so they never collide with job IDs on the cluster.
const reservationOwner int64 = 1 << 40

// Options configure a run.
type Options struct {
	// Feedback replays preceding-job dependencies as a closed loop: a
	// dependent job is submitted ThinkTime seconds after its
	// predecessor terminates, rather than at its recorded submit time.
	Feedback bool
	// Outages injects the outage log (same time base as the workload).
	Outages *outage.Log
	// Reservations injects advance-reservation requests.
	Reservations []sched.Reservation
	// NodeMem configures per-node memory (KB); nil means uniform
	// effectively-infinite memory. Length must equal the workload's
	// MaxNodes when set.
	NodeMem []int64
	// MemAware makes allocation honour job ReqMemPerProc.
	MemAware bool
	// PerfectEstimates makes the scheduler see actual runtimes instead
	// of user estimates.
	PerfectEstimates bool
	// DropKilled abandons jobs killed by outages instead of restarting
	// them.
	DropKilled bool
	// Horizon stops the simulation at this time (0 = run to drain).
	Horizon int64
	// Observers receive every job outcome exactly once: final outcomes
	// (completion or permanent drop) at the instant they happen, and
	// residual outcomes (jobs still queued or running when the run
	// ends) during collection. A metrics.Collector is the canonical
	// observer; attaching one makes a full Report available without
	// retaining the outcome slice.
	Observers []Observer
	// SampleEvery, when > 0, records a time-series snapshot
	// (utilization, queue length, backlog) every SampleEvery seconds
	// to each observer that implements SampleObserver.
	SampleEvery int64
	// DiscardOutcomes skips retaining per-job outcomes on the Result —
	// observers become the only consumers, which keeps memory O(1) on
	// million-job replays. Result.Report is meaningless in this mode;
	// use an attached Collector's Report instead.
	DiscardOutcomes bool
}

// Observer receives job outcomes as the simulation produces them —
// the streaming alternative to reading Result.Outcomes after the run.
type Observer interface {
	Observe(o metrics.Outcome)
}

// SampleObserver is implemented by observers that also want the
// machine-level time series (metrics.Collector is one).
type SampleObserver interface {
	ObserveSample(s metrics.Sample)
}

// ReservationOutcome records how an advance reservation fared.
type ReservationOutcome struct {
	Reservation sched.Reservation
	// Granted reports whether the full processor count was allocated
	// at the reserved start time.
	Granted bool
}

// Result is the output of a run.
type Result struct {
	Scheduler string
	Workload  string
	Outcomes  []metrics.Outcome
	// NeverSubmitted counts feedback jobs whose predecessor never
	// terminated inside the horizon.
	NeverSubmitted int
	Reservations   []ReservationOutcome
	// Events is the DES event count (a cost indicator for benchmarks).
	Events uint64
}

// Report computes the aggregate metrics for the run from the retained
// outcomes. Under Options.DiscardOutcomes there is nothing retained —
// attach a metrics.Collector observer and use its Report instead.
func (r *Result) Report(procs int) metrics.Report {
	return metrics.Compute(r.Scheduler, r.Workload, r.Outcomes, procs)
}

// state of one running job.
type runState struct {
	job    *core.Job
	size   int
	start  int64
	expEnd int64
	shared bool
	// remaining is work left in dedicated-seconds; meaningful for
	// shared jobs whose rate varies.
	remaining  float64
	rate       float64
	lastUpdate int64
	finish     des.Handle
	// fire is the finish callback bound to this runState, created once
	// and kept across pool recycling: rescheduling a finish (every gang
	// rate change does one) then costs no closure allocation. It reads
	// the job identity at fire time, and cancelled events never fire,
	// so pool reuse cannot misdeliver a finish.
	fire func()
}

// Run simulates workload w under scheduler s. The workload is cloned;
// the caller's copy is never mutated (schedulers may mold jobs). The
// clone is replayed by RunStream's driver over a slice-backed stream;
// under Options.Feedback its dependent jobs wait for their predecessor
// instead of arriving at their recorded submit time.
func Run(w *core.Workload, s sched.Scheduler, opts Options) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("sim: invalid workload: %w", err)
	}
	w = w.Clone()
	var awaiting []*core.Job
	if opts.Feedback {
		awaiting = w.Jobs
	}
	return run(w.Name, w.MaxNodes, core.NewSliceStream(w.Jobs), s, opts, awaiting)
}

// scheduleSampling installs the recurring instrumentation event that
// feeds SampleObservers. The tick reschedules itself only while live
// events remain, so sampling covers the whole run without keeping the
// engine alive afterwards.
func scheduleSampling(engine *des.Engine, sm *Instance, opts Options) {
	if opts.SampleEvery <= 0 {
		return
	}
	var samplers []SampleObserver
	for _, ob := range opts.Observers {
		if so, ok := ob.(SampleObserver); ok {
			samplers = append(samplers, so) //schedlint:allow allocfree setup: observer fan-out assembled once per run
		}
	}
	if len(samplers) == 0 {
		return
	}
	interval := opts.SampleEvery
	var tick func()
	tick = func() {
		sm.recordSample(samplers)
		if engine.Live() {
			engine.After(interval, des.PrioritySample, tick)
		}
	}
	engine.At(0, des.PrioritySample, tick)
}

// scheduleOutages wires an outage log into an instance: announcement
// events (scheduler visibility) plus batched node up/down transitions.
func scheduleOutages(engine *des.Engine, sm *Instance, log *outage.Log) {
	for _, rec := range log.Records {
		rec := rec
		announced := rec.Announced
		if announced < 0 {
			announced = 0
		}
		engine.At(announced, des.PriorityOutage, func() {
			sm.announceOutage(sched.Window{
				Start: rec.Start, End: rec.End, Procs: len(rec.Nodes),
			}, rec.Announced)
		})
	}
	evs := outage.Events(log)
	for i := 0; i < len(evs); {
		k := i
		for k < len(evs) && evs[k].Time == evs[i].Time {
			k++
		}
		var downs, ups []int
		for _, ev := range evs[i:k] {
			if ev.Down {
				downs = append(downs, int(ev.Node)) //schedlint:allow allocfree setup: outage batches wired once per run, before the event loop
			} else {
				ups = append(ups, int(ev.Node)) //schedlint:allow allocfree setup: outage batches wired once per run, before the event loop
			}
		}
		if t := evs[i].Time; t >= 0 {
			engine.At(t, des.PriorityOutage, func() { sm.applyNodeEvents(downs, ups) })
		}
		i = k
	}
}
