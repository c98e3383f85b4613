package sim

// RunStream is the pull-based counterpart of Run: instead of cloning a
// materialized workload and scheduling every arrival event up front, it
// pulls jobs from a core.JobStream one at a time, keeping exactly one
// arrival in flight. With Options.DiscardOutcomes (so observers are the
// only consumers) and outcome pruning, a full trace replay holds O(1)
// state per job: memory is bounded by the number of jobs simultaneously
// queued or running, never by trace length.

import (
	"fmt"
	"sort"

	"parsched/internal/core"
	"parsched/internal/des"
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

	engine := des.NewEngine(2*len(opts.Reservations) + 256)
	sm, err := NewInstance(engine, name, maxNodes, s, opts)
	if err != nil {
		return nil, err
	}
	sm.pruneFinal = opts.DiscardOutcomes

	// The arrival pump: each arrival event submits its job, then keeps
	// pulling and submitting while the next job is due at the same
	// instant (file order preserved), and re-arms for the next distinct
	// submit time — so the engine never holds more than one pending
	// arrival, and the event count per arrival instant matches Run's
	// replay cursor exactly (the streaming≡batch tests compare counts).
	// One closure serves every arrival: the job it submits is pending.
	var (
		arrive     func()
		pumpErr    error
		pulled     int
		prevSubmit int64
		pending    *core.Job // scheduled but not yet submitted
	)
	pull := func() (*core.Job, error) {
		j, err := js.Next()
		if err != nil || j == nil {
			return nil, err
		}
		pulled++
		if j.ID != int64(pulled) {
			return nil, fmt.Errorf("sim: stream job %d arrived in position %d; IDs must be sequential from 1", j.ID, pulled) //schedlint:allow allocfree error path: a malformed stream aborts the replay
		}
		if j.Submit < prevSubmit {
			return nil, fmt.Errorf("sim: stream job %d submitted at %d, before predecessor's %d", j.ID, j.Submit, prevSubmit) //schedlint:allow allocfree error path: a malformed stream aborts the replay
		}
		if j.Size < 1 || j.Size > maxNodes {
			return nil, fmt.Errorf("sim: stream job %d: size %d outside machine of %d nodes", j.ID, j.Size, maxNodes) //schedlint:allow allocfree error path: a malformed stream aborts the replay
		}
		if j.Runtime < 0 {
			return nil, fmt.Errorf("sim: stream job %d: negative runtime %d", j.ID, j.Runtime) //schedlint:allow allocfree error path: a malformed stream aborts the replay
		}
		prevSubmit = j.Submit
		return j, nil
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

	return collectStream(sm, name, engine, js, pending)
}

// collectStream assembles the streaming result. Residual outcomes (jobs
// still queued or running when the run ended) are flushed to observers
// in job-ID order, matching collect; under pruning they are the only
// entries left in the outcome map. Jobs the horizon cut off before
// their arrival — the scheduled-but-unfired one, plus the unpulled
// stream tail — count as NeverSubmitted, as they do in Run.
func collectStream(sm *Instance, name string, engine *des.Engine, js core.JobStream, pending *core.Job) (*Result, error) {
	res := &Result{Scheduler: sm.schedule.Name(), Workload: name, Events: engine.Processed}
	ids := make([]int64, 0, len(sm.outcomes)) //schedlint:allow allocfree once per replay, sized after the event loop drains
	for id := range sm.outcomes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, k int) bool { return ids[i] < ids[k] })
	for _, id := range ids {
		oo := *sm.outcomes[id]
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
	if pending != nil {
		res.NeverSubmitted++
		for {
			j, err := js.Next()
			if err != nil {
				return nil, err
			}
			if j == nil {
				break
			}
			res.NeverSubmitted++
		}
	}
	res.Reservations = sm.resvResults
	return res, nil
}
