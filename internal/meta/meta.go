// Package meta implements the metacomputing scheduling architecture of
// Section 3 and Figure 1 of the paper:
//
//	users --> meta scheduler --> machine schedulers --> node schedulers
//
// A Grid assembles several Sites (each a machine + machine scheduler
// simulated by a sim.Instance) on one shared event engine. Meta jobs
// flow through a meta-scheduler Policy that selects a site per job —
// using queue information and wait-time predictions, the information
// the paper says meta-schedulers need. Co-allocating jobs instead
// request simultaneous advance reservations on several sites, the
// mechanism Section 3.1 describes ("Reservations consist of a
// guarantee that a certain amount of resources is going to be
// available continuously starting at a pre-determined future time").
//
// The machine schedulers are full schedulers from internal/sched, not
// stubs, so local workloads and meta jobs contend exactly as the paper
// discusses ("local schedulers can dictate what resources are
// available to meta applications").
package meta

import (
	"fmt"
	"sort"

	"parsched/internal/core"
	"parsched/internal/des"
	"parsched/internal/metrics"
	"parsched/internal/predict"
	"parsched/internal/sched"
	"parsched/internal/sim"
	"parsched/internal/stats"
)

// metaIDBase offsets meta-job IDs so they never collide with local
// workload job IDs on any instance.
const metaIDBase int64 = 1 << 30

// Site is one machine in the grid.
type Site struct {
	Name     string
	Nodes    int
	Instance *sim.Instance
	// Predictor learns local queue waits and serves the meta-scheduler.
	Predictor predict.Predictor

	localJobs int
}

// PredictedWait returns the site's current wait prediction for job j.
func (s *Site) PredictedWait(j *core.Job, now int64) int64 {
	if s.Predictor == nil {
		return 0
	}
	return s.Predictor.Predict(j, now)
}

// Grid is a collection of sites plus the meta-scheduling state.
type Grid struct {
	Engine *des.Engine
	Sites  []*Site

	// routed records which site each meta job went to.
	routed map[int64]*Site
	// metaJobs keeps the dispatched meta jobs in submit order.
	metaJobs []*core.Job

	coalloc []CoAllocation
}

// SiteSpec configures one site for NewGrid.
type SiteSpec struct {
	Name      string
	Nodes     int
	Scheduler sched.Scheduler
	// Local is the site's own background workload (may be nil).
	Local *core.Workload
	// Predictor for this site's waits (nil = Zero).
	Predictor predict.Predictor
	// Options for the site's instance.
	Options sim.Options
}

// NewGrid assembles sites on a fresh engine and schedules their local
// workloads.
func NewGrid(specs []SiteSpec) (*Grid, error) {
	g := &Grid{Engine: &des.Engine{}, routed: map[int64]*Site{}}
	for _, spec := range specs {
		inst, err := sim.NewInstance(g.Engine, spec.Name, spec.Nodes, spec.Scheduler, spec.Options)
		if err != nil {
			return nil, err
		}
		site := &Site{Name: spec.Name, Nodes: spec.Nodes, Instance: inst, Predictor: spec.Predictor}
		if site.Predictor == nil {
			site.Predictor = predict.Zero{}
		}
		// Predictors learn from every start on the site (local or
		// meta): the same accounting data the cited predictors mine.
		inst.StartHook = func(j *core.Job, submit, start int64) {
			site.Predictor.Observe(j, start-submit)
		}
		if spec.Local != nil {
			if spec.Local.MaxNodes > spec.Nodes {
				return nil, fmt.Errorf("meta: site %s local workload needs %d nodes, site has %d",
					spec.Name, spec.Local.MaxNodes, spec.Nodes)
			}
			local := spec.Local.Clone()
			for _, j := range local.Jobs {
				inst.SubmitAt(j, j.Submit)
			}
			site.localJobs = len(local.Jobs)
		}
		g.Sites = append(g.Sites, site)
	}
	return g, nil
}

// Policy selects a site for a meta job.
type Policy interface {
	Name() string
	Select(g *Grid, j *core.Job, now int64) *Site
}

// RandomPolicy picks a site uniformly at random (seeded).
type RandomPolicy struct{ RNG *stats.RNG }

// NewRandomPolicy returns a seeded random policy.
func NewRandomPolicy(seed int64) *RandomPolicy {
	return &RandomPolicy{RNG: stats.NewRNG(seed)}
}

// Name implements Policy.
func (p *RandomPolicy) Name() string { return "random" }

// Select implements Policy.
func (p *RandomPolicy) Select(g *Grid, j *core.Job, _ int64) *Site {
	feasible := feasibleSites(g, j)
	if len(feasible) == 0 {
		return nil
	}
	return feasible[p.RNG.Intn(len(feasible))]
}

// LeastWorkPolicy picks the feasible site with the least queued+running
// processor-seconds per processor — the "current availability"
// information the paper notes is easily available.
type LeastWorkPolicy struct{}

// Name implements Policy.
func (LeastWorkPolicy) Name() string { return "least-work" }

// Select implements Policy.
func (LeastWorkPolicy) Select(g *Grid, j *core.Job, _ int64) *Site {
	feasible := feasibleSites(g, j)
	var best *Site
	var bestScore float64
	for _, s := range feasible {
		score := float64(s.Instance.QueuedWork()) / float64(s.Nodes)
		if best == nil || score < bestScore || (score == bestScore && s.Name < best.Name) {
			best, bestScore = s, score
		}
	}
	return best
}

// PredictedWaitPolicy picks the feasible site whose wait predictor
// promises the earliest start — the full Section 3.1 information loop.
type PredictedWaitPolicy struct{}

// Name implements Policy.
func (PredictedWaitPolicy) Name() string { return "predicted-wait" }

// Select implements Policy.
func (PredictedWaitPolicy) Select(g *Grid, j *core.Job, now int64) *Site {
	feasible := feasibleSites(g, j)
	var best *Site
	var bestWait int64
	for _, s := range feasible {
		w := s.PredictedWait(j, now)
		if best == nil || w < bestWait || (w == bestWait && s.Name < best.Name) {
			best, bestWait = s, w
		}
	}
	return best
}

// feasibleSites returns sites large enough for the job, name-ordered.
func feasibleSites(g *Grid, j *core.Job) []*Site {
	var out []*Site
	for _, s := range g.Sites {
		if j.Size <= s.Nodes {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// SubmitMeta schedules meta jobs for dispatch through the policy at
// their submit times. Job IDs are remapped into the meta ID space.
func (g *Grid) SubmitMeta(jobs []*core.Job, policy Policy) {
	for i, j := range jobs {
		jj := *j
		jj.ID = metaIDBase + int64(i+1)
		job := &jj
		g.metaJobs = append(g.metaJobs, job)
		g.Engine.At(job.Submit, des.PriorityArrival, func() {
			site := policy.Select(g, job, g.Engine.Now())
			if site == nil {
				return // no feasible site; job is lost (counted in results)
			}
			g.routed[job.ID] = site
			site.Instance.SubmitNow(job)
		})
	}
}

// Run drains the engine (or runs to the horizon if positive).
func (g *Grid) Run(horizon int64) {
	if horizon > 0 {
		g.Engine.RunUntil(horizon)
	} else {
		g.Engine.Run()
	}
}

// MetaOutcomes returns the outcomes of all dispatched meta jobs plus
// the count of jobs no site could run.
func (g *Grid) MetaOutcomes() ([]metrics.Outcome, int) {
	var outs []metrics.Outcome
	lost := 0
	for _, j := range g.metaJobs {
		site, ok := g.routed[j.ID]
		if !ok {
			lost++
			continue
		}
		if o, ok := site.Instance.Outcome(j.ID); ok {
			outs = append(outs, o)
		}
	}
	return outs, lost
}

// LocalOutcomes returns the site's local-job outcomes (meta jobs
// excluded).
func (s *Site) LocalOutcomes() []metrics.Outcome {
	var locals []metrics.Outcome
	for _, o := range s.Instance.Outcomes() {
		if o.JobID < metaIDBase {
			locals = append(locals, o)
		}
	}
	return locals
}

// LocalOutcomes returns every site's local-job outcomes (meta jobs
// excluded), keyed by site name. Code that combines them numerically
// should range over Sites instead, so the order is fixed.
func (g *Grid) LocalOutcomes() map[string][]metrics.Outcome {
	out := map[string][]metrics.Outcome{}
	for _, s := range g.Sites {
		out[s.Name] = s.LocalOutcomes()
	}
	return out
}

// TotalNodes sums the grid's processors.
func (g *Grid) TotalNodes() int {
	n := 0
	for _, s := range g.Sites {
		n += s.Nodes
	}
	return n
}
