package sched

import (
	"slices"

	"parsched/internal/core"
)

// queuePolicy is the order in which a QueueScheduler starts its
// waiting jobs.
type queuePolicy uint8

const (
	byArrival      queuePolicy = iota // fcfs, firstfit: submission order
	byEstimate                        // sjf: estimate ascending
	byEstimateDesc                    // ljf: estimate descending
	bySize                            // smallest: processor count ascending
	byExpansion                       // lxf: expansion factor descending, as of the pass
)

// QueueScheduler is the family of non-backfilling queue schedulers:
// jobs wait in a queue ordered by a policy; the scheduler starts jobs
// from the head while they fit. With Bypass (first-fit), jobs behind a
// blocked head may start if they fit, which improves utilization at the
// cost of possible starvation.
//
// Every policy breaks ties by job ID. The static policies (sjf, ljf,
// smallest) keep the queue sorted by inserting each arrival at its
// place, so a pass reads only the head; lxf, whose priorities move
// with time, finds its head by one linear scan per start. No pass
// sorts or allocates.
type QueueScheduler struct {
	name   string
	policy queuePolicy
	bypass bool
	// DrainAware makes the scheduler refuse to start jobs whose
	// estimated end crosses the start of a known full-machine outage
	// (scheduling "such that the system is drained up to the outage").
	DrainAware bool

	queue []queued
	// xf is lxf's per-pass expansion factors, index-aligned with queue
	// and reused across passes.
	xf []float64
}

// queued is a waiting job with the values its policy orders by, taken
// at submission. Estimates are frozen once a job is queued (a requeued
// kill comes back through OnSubmit), so two static keys never change
// order while both jobs wait.
type queued struct {
	job *core.Job
	// key is the estimate (sjf, ljf, lxf) or the size (smallest).
	key    int64
	submit int64
}

// The queue-scheduler families self-register: one family per ordering
// policy, each accepting the drain flag (plus the shared decorator
// parameters Register appends).
func init() {
	queueFamilies := []struct {
		name string
		doc  string
		make func() *QueueScheduler
	}{
		{"fcfs", "first-come first-served", NewFCFS},
		{"firstfit", "FCFS order with bypass: any queued job that fits may start", NewFirstFit},
		{"sjf", "shortest job first by runtime estimate", NewSJF},
		{"ljf", "longest job first by runtime estimate", NewLJF},
		{"smallest", "smallest job first by processor count", NewSmallestFirst},
		{"lxf", "largest expansion factor first (dynamic slowdown priority)", NewLXF},
	}
	for _, qf := range queueFamilies {
		ctor := qf.make
		Register(Family{
			Name: qf.name, //schedlint:allow registry names come from the literal queueFamilies table above; the registry round-trip test builds every listed name
			Doc:  qf.doc,
			Params: []Param{
				{Name: "drain", Kind: BoolParam,
					Doc: "refuse starts that would cross an announced full-machine outage"},
			},
			New: func(a Args) (Scheduler, error) {
				s := ctor()
				s.DrainAware = a.Bool("drain")
				return s, nil
			},
		})
	}
}

// NewFCFS returns first-come-first-served.
func NewFCFS() *QueueScheduler {
	return &QueueScheduler{name: "fcfs", policy: byArrival}
}

// NewFirstFit returns FCFS order with bypass: any queued job that fits
// may start (no reservation for the head, starvation possible).
func NewFirstFit() *QueueScheduler {
	return &QueueScheduler{name: "firstfit", policy: byArrival, bypass: true}
}

// NewSJF returns shortest-job-first by runtime estimate.
func NewSJF() *QueueScheduler {
	return &QueueScheduler{name: "sjf", policy: byEstimate}
}

// NewLJF returns longest-job-first by runtime estimate.
func NewLJF() *QueueScheduler {
	return &QueueScheduler{name: "ljf", policy: byEstimateDesc}
}

// NewSmallestFirst orders by processor count ascending (small jobs slip
// in first), a classic utilization-friendly but large-job-hostile
// policy.
func NewSmallestFirst() *QueueScheduler {
	return &QueueScheduler{name: "smallest", policy: bySize}
}

// NewLXF returns largest-expansion-factor-first: priority to the job
// whose (wait + estimate) / estimate is largest — a dynamic
// slowdown-oriented policy.
func NewLXF() *QueueScheduler {
	return &QueueScheduler{name: "lxf", policy: byExpansion}
}

// expansion is the expansion factor at now of a job submitted at submit
// with estimate est.
func expansion(now, submit, est int64) float64 {
	if est < 1 {
		est = 1
	}
	wait := now - submit
	if wait < 0 {
		wait = 0
	}
	return float64(wait+est) / float64(est)
}

// Name implements Scheduler. The drain-aware variant names itself by
// its canonical spec so result tables distinguish it from the base
// policy.
//
//schedlint:coldpath reporting: result labeling, once per run
func (q *QueueScheduler) Name() string {
	if q.DrainAware {
		return q.name + "(drain)"
	}
	return q.name
}

// Queued implements QueueReporter.
func (q *QueueScheduler) Queued() []*core.Job {
	jobs := make([]*core.Job, len(q.queue)) //schedlint:allow allocfree QueueReporter hands the caller a copy it owns, as every scheduler's Queued does
	for i, e := range q.queue {
		jobs[i] = e.job
	}
	return jobs
}

// OnSubmit implements Scheduler.
func (q *QueueScheduler) OnSubmit(ctx Context, j *core.Job) {
	e := queued{job: j, submit: j.Submit}
	switch q.policy {
	case byEstimate, byEstimateDesc, byExpansion:
		e.key = ctx.Estimate(j)
	case bySize:
		e.key = int64(j.Size)
	}
	i := len(q.queue)
	if q.policy != byArrival && q.policy != byExpansion {
		// Binary search for the first job e goes before; ties in
		// (key, ID) stay in submission order.
		lo := 0
		for lo < i {
			m := int(uint(lo+i) >> 1)
			if q.before(e, q.queue[m]) {
				i = m
			} else {
				lo = m + 1
			}
		}
	}
	q.queue = slices.Insert(q.queue, i, e)
	q.schedule(ctx)
}

// before reports whether a precedes b under a static policy: by key,
// then by job ID.
func (q *QueueScheduler) before(a, b queued) bool {
	if a.key != b.key {
		return (a.key < b.key) != (q.policy == byEstimateDesc)
	}
	return a.job.ID < b.job.ID
}

// OnFinish implements Scheduler.
func (q *QueueScheduler) OnFinish(ctx Context, _ *core.Job) { q.schedule(ctx) }

// OnChange implements Scheduler.
func (q *QueueScheduler) OnChange(ctx Context) { q.schedule(ctx) }

func (q *QueueScheduler) schedule(ctx Context) {
	switch {
	case q.bypass:
		q.scheduleBypass(ctx)
	case q.policy == byExpansion:
		q.scheduleExpansion(ctx)
	default:
		// The queue is in start order: start heads while they fit.
		n := 0
		for n < len(q.queue) && q.startNow(ctx, q.queue[n].job) {
			n++
		}
		k := copy(q.queue, q.queue[n:])
		clear(q.queue[k:])
		q.queue = q.queue[:k]
	}
}

// scheduleBypass starts every queued job that fits, in queue order,
// compacting the queue in the same sweep. One sweep decides as much as
// rescanning from the head after each start would: within a pass free
// capacity only falls and the drain test depends only on now, so a job
// rejected earlier in the sweep stays rejected.
func (q *QueueScheduler) scheduleBypass(ctx Context) {
	k := 0
	for _, e := range q.queue {
		if !q.startNow(ctx, e.job) {
			q.queue[k] = e
			k++
		}
	}
	clear(q.queue[k:])
	q.queue = q.queue[:k]
}

// scheduleExpansion is the lxf pass: every queued job's expansion
// factor is computed once for the pass, and the head is the largest
// (smaller ID first on ties), found by a linear scan per start.
func (q *QueueScheduler) scheduleExpansion(ctx Context) {
	now := ctx.Now()
	xf := q.xf[:0]
	for _, e := range q.queue {
		xf = append(xf, expansion(now, e.submit, e.key))
	}
	for len(q.queue) > 0 {
		h := 0
		for i := 1; i < len(xf); i++ {
			if xf[i] > xf[h] || xf[i] == xf[h] && q.queue[i].job.ID < q.queue[h].job.ID {
				h = i
			}
		}
		if !q.startNow(ctx, q.queue[h].job) {
			break
		}
		q.queue = slices.Delete(q.queue, h, h+1)
		xf = slices.Delete(xf, h, h+1)
	}
	q.xf = xf
}

// startNow starts j if it fits now and, when draining, would not run
// into an announced full-machine outage. It reports whether j started.
func (q *QueueScheduler) startNow(ctx Context, j *core.Job) bool {
	if !ctx.CanStart(j, j.Size) {
		return false
	}
	if q.DrainAware && crossesFullOutage(ctx, j) {
		return false
	}
	ctx.Start(j, j.Size)
	return true
}

// crossesFullOutage reports whether starting j now would run into an
// announced outage that takes down (essentially) the whole machine
// before the job's estimated end — the drain condition.
func crossesFullOutage(ctx Context, j *core.Job) bool {
	now := ctx.Now()
	end := now + ctx.Estimate(j)
	for _, w := range ctx.Outages() {
		if w.Start <= now {
			continue // ongoing; capacity already reflects it
		}
		if w.Procs*10 >= ctx.TotalProcs()*9 && w.Start < end {
			return true
		}
	}
	return false
}
