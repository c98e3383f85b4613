package sched_test

// Differential test of the queue-scheduler families against the way
// they were first written: the whole queue stable-sorted by a
// comparator on every pass and rescanned from the head after every
// start. The production QueueScheduler keeps static orders sorted by
// insertion, finds the lxf head by a linear scan and sweeps first-fit
// once; every decision must come out the same.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"parsched/internal/core"
	"parsched/internal/outage"
	"parsched/internal/sched"
	"parsched/internal/sim"
)

// sortQueue is the oracle: the QueueScheduler pass as a comparator
// sort followed by a head-first scan.
type sortQueue struct {
	order  func(ctx sched.Context, now int64, a, b *core.Job) bool
	bypass bool
	drain  bool
	queue  []*core.Job
}

func (q *sortQueue) Name() string                            { return "oracle" }
func (q *sortQueue) Queued() []*core.Job                     { return append([]*core.Job(nil), q.queue...) }
func (q *sortQueue) OnFinish(ctx sched.Context, _ *core.Job) { q.schedule(ctx) }
func (q *sortQueue) OnChange(ctx sched.Context)              { q.schedule(ctx) }

func (q *sortQueue) OnSubmit(ctx sched.Context, j *core.Job) {
	q.queue = append(q.queue, j)
	q.schedule(ctx)
}

func (q *sortQueue) schedule(ctx sched.Context) {
	now := ctx.Now()
	if q.order != nil {
		sort.SliceStable(q.queue, func(i, k int) bool { return q.order(ctx, now, q.queue[i], q.queue[k]) })
	}
	for len(q.queue) > 0 {
		started := false
		for i, j := range q.queue {
			if i > 0 && !q.bypass {
				break
			}
			if !ctx.CanStart(j, j.Size) {
				continue
			}
			if q.drain && sched.CrossesFullOutage(ctx, j) {
				continue
			}
			ctx.Start(j, j.Size)
			q.queue = append(q.queue[:i], q.queue[i+1:]...)
			started = true
			break
		}
		if !started {
			return
		}
	}
}

func oracleExpansion(now int64, j *core.Job, est int64) float64 {
	if est < 1 {
		est = 1
	}
	wait := now - j.Submit
	if wait < 0 {
		wait = 0
	}
	return float64(wait+est) / float64(est)
}

// oracleFor returns the oracle for a queue family, with the comparator
// that family was originally defined by.
func oracleFor(family string, drain bool) *sortQueue {
	q := &sortQueue{drain: drain}
	switch family {
	case "fcfs":
	case "firstfit":
		q.bypass = true
	case "sjf":
		q.order = func(ctx sched.Context, _ int64, a, b *core.Job) bool {
			ea, eb := ctx.Estimate(a), ctx.Estimate(b)
			if ea != eb {
				return ea < eb
			}
			return a.ID < b.ID
		}
	case "ljf":
		q.order = func(ctx sched.Context, _ int64, a, b *core.Job) bool {
			ea, eb := ctx.Estimate(a), ctx.Estimate(b)
			if ea != eb {
				return ea > eb
			}
			return a.ID < b.ID
		}
	case "smallest":
		q.order = func(_ sched.Context, _ int64, a, b *core.Job) bool {
			if a.Size != b.Size {
				return a.Size < b.Size
			}
			return a.ID < b.ID
		}
	case "lxf":
		q.order = func(ctx sched.Context, now int64, a, b *core.Job) bool {
			xa := oracleExpansion(now, a, ctx.Estimate(a))
			xb := oracleExpansion(now, b, ctx.Estimate(b))
			if xa != xb {
				return xa > xb
			}
			return a.ID < b.ID
		}
	default:
		panic("no oracle for " + family)
	}
	return q
}

// tieWorkload draws a small congested workload whose keys collide on
// purpose: submit times on a coarse grid (many simultaneous arrivals),
// estimates and sizes from short lists, and estimates that are
// multiples of one another, so equal expansion factors arise between
// different jobs. Runtimes under- and overrun their estimates, and
// some jobs carry no estimate at all.
func tieWorkload(rng *rand.Rand, nodes int) *core.Workload {
	ests := []int64{10, 20, 40, 100, 200, 400}
	sizes := []int{1, 2, 4, nodes / 4, nodes / 2, nodes}
	n := 40 + rng.Intn(80)
	w := &core.Workload{Name: "ties", MaxNodes: nodes}
	var t int64
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			t += 10 * rng.Int63n(6)
		}
		est := ests[rng.Intn(len(ests))]
		rt := est * (1 + rng.Int63n(4)) / 4 // 25% to 100% of the estimate
		switch rng.Intn(5) {
		case 0:
			rt = est + rng.Int63n(est) // overruns
		case 1:
			est = 0 // no estimate: the runtime stands in
		}
		w.Jobs = append(w.Jobs, &core.Job{
			ID: int64(i + 1), Submit: t, Size: sizes[rng.Intn(len(sizes))],
			Runtime: rt, Estimate: est, User: 1 + rng.Int63n(3),
		})
	}
	return w
}

// tieOutages mixes announced full-machine maintenance (what drain
// reacts to) with unannounced partial failures that kill and requeue
// running jobs.
func tieOutages(rng *rand.Rand, nodes int, span int64) *outage.Log {
	log := &outage.Log{}
	all := make([]int64, nodes)
	for i := range all {
		all[i] = int64(i)
	}
	for k := 0; k < 1+rng.Intn(3); k++ {
		start := rng.Int63n(span + 1)
		log.Records = append(log.Records, outage.Record{
			Announced: start / 2, Start: start, End: start + 20 + rng.Int63n(200),
			Kind: outage.Maintenance, Nodes: all,
		})
	}
	for k := 0; k < rng.Intn(4); k++ {
		start := rng.Int63n(span + 1)
		node := rng.Int63n(int64(nodes))
		log.Records = append(log.Records, outage.Record{
			Announced: start, Start: start, End: start + 10 + rng.Int63n(300),
			Kind: outage.CPUFailure, Nodes: []int64{node},
		})
	}
	sort.Slice(log.Records, func(a, b int) bool { return log.Records[a].Start < log.Records[b].Start })
	for i := range log.Records {
		log.Records[i].ID = int64(i + 1)
	}
	return log
}

func TestQueueSchedulersMatchSortOracle(t *testing.T) {
	families := []string{"fcfs", "firstfit", "sjf", "ljf", "smallest", "lxf"}
	const nodes = 16
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := tieWorkload(rng, nodes)
		opts := sim.Options{PerfectEstimates: seed%4 == 0}
		if seed%3 != 0 {
			opts.Outages = tieOutages(rng, nodes, w.Jobs[len(w.Jobs)-1].Submit+500)
		}
		for _, family := range families {
			for _, drain := range []bool{false, true} {
				spec := family
				if drain {
					spec += "(drain)"
				}
				s, err := sched.New(spec)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sim.Run(w, s, opts)
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, spec, err)
				}
				want, err := sim.Run(w, oracleFor(family, drain), opts)
				if err != nil {
					t.Fatalf("seed %d %s oracle: %v", seed, spec, err)
				}
				if err := sameOutcomes(got, want); err != nil {
					t.Fatalf("seed %d %s: %v", seed, spec, err)
				}
			}
		}
	}
}

func sameOutcomes(got, want *sim.Result) error {
	if len(got.Outcomes) != len(want.Outcomes) {
		return fmt.Errorf("%d outcomes, oracle has %d", len(got.Outcomes), len(want.Outcomes))
	}
	for i := range got.Outcomes {
		if !reflect.DeepEqual(got.Outcomes[i], want.Outcomes[i]) {
			return fmt.Errorf("outcome %d: got %+v, oracle %+v", i, got.Outcomes[i], want.Outcomes[i])
		}
	}
	if got.Events != want.Events || got.NeverSubmitted != want.NeverSubmitted {
		return fmt.Errorf("events %d/%d never-submitted %d/%d against the oracle",
			got.Events, want.Events, got.NeverSubmitted, want.NeverSubmitted)
	}
	return nil
}
