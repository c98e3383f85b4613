package sim

import (
	"fmt"

	"parsched/internal/core"
	"parsched/internal/des"
	"parsched/internal/metrics"
	"parsched/internal/sched"
)

// RunStream simulates the jobs pulled from js under scheduler s on a
// machine of maxNodes nodes. The stream must yield jobs in
// non-decreasing submit order with IDs sequential from 1 (the contract
// core.JobStream documents and trace.JobReader guarantees); violations
// abort the run with an error.
//
// Feedback replay is not supported: a closed loop needs every dependent
// job in hand when its predecessor terminates, which is exactly what a
// pull-based arrival stream does not have. Materialize the workload and
// use Run for feedback studies.
//
//schedlint:hotpath entry point: streaming replay; taints des/sched/cluster/metrics/swf/trace cross-package
func RunStream(name string, maxNodes int, js core.JobStream, s sched.Scheduler, opts Options) (*Result, error) {
	if opts.Feedback {
		return nil, fmt.Errorf("sim: streaming replay does not support feedback (closed-loop) mode; use Run") //schedlint:allow allocfree setup error path: rejects the spec before any event fires
	}
	return run(name, maxNodes, js, s, opts, nil)
}

// run is the one replay driver behind Run and RunStream. Under
// Options.Feedback, awaiting holds every job of the stream: the ones
// with a preceding job are registered to wait for it before the first
// event, and the arrival pump skips them when it pulls them.
func run(name string, maxNodes int, js core.JobStream, s sched.Scheduler, opts Options, awaiting []*core.Job) (*Result, error) {
	// The peak pending-event population is one finish event per running
	// job plus the injected streams, not one event per trace job;
	// pre-sizing the engine for that makes the run allocation-free in
	// steady state.
	engine := des.NewEngine(maxNodes + 2*len(opts.Reservations) + 64)
	sm, err := NewInstance(engine, name, maxNodes, s, opts)
	if err != nil {
		return nil, err
	}
	sm.pruneFinal = opts.DiscardOutcomes
	for _, j := range awaiting {
		if j.PrecedingJob > 0 {
			sm.AwaitPredecessor(j)
		}
	}

	// The arrival pump: each arrival event submits its job, then keeps
	// pulling and submitting while the next job is due at the same
	// instant (stream order preserved), and re-arms for the next
	// distinct submit time — so the engine never holds more than one
	// pending arrival. Its PriorityTraceArrival class orders each batch
	// before same-instant feedback resubmissions. One closure serves
	// every arrival: the job it submits is pending.
	var (
		arrive     func()
		pumpErr    error
		pulled     int
		prevSubmit int64
		pending    *core.Job // scheduled but not yet submitted
	)
	pull := func() (*core.Job, error) {
		for {
			j, err := js.Next()
			if err != nil || j == nil {
				return nil, err
			}
			pulled++
			if err := core.CheckJob(j, pulled, prevSubmit, maxNodes); err != nil {
				return nil, fmt.Errorf("sim: %w", err) //schedlint:allow allocfree error path: a malformed stream aborts the replay
			}
			prevSubmit = j.Submit
			if !opts.Feedback || j.PrecedingJob == 0 {
				return j, nil
			}
		}
	}
	arrive = func() {
		now := engine.Now()
		for {
			j := pending
			pending = nil
			sm.submit(j, now)
			next, err := pull()
			if err != nil {
				pumpErr = err
				return
			}
			if next == nil {
				return
			}
			pending = next
			if next.Submit != now {
				engine.At(next.Submit, des.PriorityTraceArrival, arrive)
				return
			}
		}
	}
	first, err := pull()
	if err != nil {
		return nil, err
	}
	if first != nil {
		pending = first
		engine.At(first.Submit, des.PriorityTraceArrival, arrive)
	}

	if opts.Outages != nil {
		scheduleOutages(engine, sm, opts.Outages)
	}
	for _, r := range opts.Reservations {
		r := r
		announce := r.Announced
		if announce < 0 {
			announce = 0
		}
		if announce > r.Start {
			announce = r.Start
		}
		engine.At(announce, des.PriorityOutage, func() { sm.Reserve(r) })
	}
	scheduleSampling(engine, sm, opts)

	if opts.Horizon > 0 {
		engine.RunUntil(opts.Horizon)
	} else {
		engine.Run()
	}
	if pumpErr != nil {
		return nil, pumpErr
	}
	// The horizon cut the replay off before pending arrived: drain the
	// unpulled tail so that it counts as never submitted too.
	for j := pending; j != nil; {
		if j, err = js.Next(); err != nil {
			return nil, err
		}
		if j != nil {
			pulled++
		}
	}
	return collect(sm, name, engine, pulled), nil
}

// collect assembles the result once the event loop stops. The pump
// checked that the stream's IDs run 1..pulled, so walking them visits
// the outcome map in job-ID order without sorting. Jobs that never
// reached a final termination (still queued or running at the horizon)
// are flushed to the observers here — final outcomes were already
// delivered at event time, and under pruning the residual ones are the
// only entries left — so observers see every submitted job exactly
// once. Pulled jobs that were never submitted (cut off by the horizon,
// or feedback jobs whose predecessor never terminated) count as
// NeverSubmitted.
func collect(sm *Instance, name string, engine *des.Engine, pulled int) *Result {
	res := &Result{
		Scheduler:      sm.schedule.Name(),
		Workload:       name,
		Events:         engine.Processed,
		NeverSubmitted: pulled - sm.submitted,
		Reservations:   sm.resvResults,
	}
	if !sm.opts.DiscardOutcomes {
		res.Outcomes = make([]metrics.Outcome, 0, len(sm.outcomes)) //schedlint:allow allocfree once per replay, sized after the event loop stops
	}
	for id := int64(1); id <= int64(pulled); id++ {
		o, ok := sm.outcomes[id]
		if !ok {
			continue
		}
		oo := *o
		if oo.End < 0 {
			if rs, running := sm.running[id]; running {
				oo.Start = rs.start
			}
			if !oo.Dropped {
				sm.emit(oo)
			}
		}
		if !sm.opts.DiscardOutcomes {
			res.Outcomes = append(res.Outcomes, oo)
		}
	}
	return res
}
