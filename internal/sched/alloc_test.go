package sched

import (
	"slices"
	"testing"

	"parsched/internal/core"
)

// steadyContext is an allocation-free Context for allocation guards: a
// machine of fixed capacity whose running set lives in a reused buffer
// kept sorted by expected end.
type steadyContext struct {
	now     int64
	total   int
	free    int
	running []RunningJob
}

func (c *steadyContext) Now() int64                          { return c.now }
func (c *steadyContext) TotalProcs() int                     { return c.total }
func (c *steadyContext) FreeProcs() int                      { return c.free }
func (c *steadyContext) CanStart(_ *core.Job, size int) bool { return size <= c.free }
func (c *steadyContext) Running() []RunningJob               { return c.running }
func (c *steadyContext) Estimate(j *core.Job) int64          { return j.EstimateOrRuntime() }
func (c *steadyContext) Outages() []Window                   { return nil }
func (c *steadyContext) Reservations() []Window              { return nil }
func (c *steadyContext) StartShared(*core.Job, float64)      { panic("steadyContext: shared start") }
func (c *steadyContext) SetRate(*core.Job, float64)          { panic("steadyContext: shared rate") }

func (c *steadyContext) Start(j *core.Job, size int) {
	if size > c.free {
		panic("steadyContext: start over capacity")
	}
	c.free -= size
	r := RunningJob{Job: j, Size: size, Start: c.now, ExpEnd: c.now + c.Estimate(j)}
	i := len(c.running)
	for i > 0 && c.running[i-1].ExpEnd > r.ExpEnd {
		i--
	}
	c.running = slices.Insert(c.running, i, r)
}

// finishFirst advances the clock to the earliest expected end, ends
// that job and tells s.
func (c *steadyContext) finishFirst(s Scheduler) {
	r := c.running[0]
	c.running = slices.Delete(c.running, 0, 1)
	c.now = max(c.now, r.ExpEnd)
	c.free += r.Size
	s.OnFinish(c, r.Job)
}

// steadyCycler drives a scheduler through submit/start/finish cycles
// at a constant queue length: every cycle submits one job and finishes
// one, and the freed processors start exactly one queued job. Job
// structs come from a ring larger than everything queued or running,
// so a slot is reused only after its job has finished.
type steadyCycler struct {
	ctx  *steadyContext
	s    Scheduler
	ring []core.Job
	next int64
}

const (
	steadyProcs  = 64
	steadyJobSz  = 8
	steadyQueued = 48
)

func newSteadyCycler(s Scheduler) *steadyCycler {
	c := &steadyCycler{
		ctx: &steadyContext{
			total: steadyProcs, free: steadyProcs,
			running: make([]RunningJob, 0, steadyProcs/steadyJobSz+1),
		},
		s:    s,
		ring: make([]core.Job, 4*(steadyQueued+steadyProcs/steadyJobSz)),
	}
	for i := 0; i < steadyProcs/steadyJobSz+steadyQueued; i++ {
		c.submit()
	}
	return c
}

// submit hands the scheduler a fresh job whose estimate cycles through
// a spread of values, so ordered policies insert in the middle.
func (c *steadyCycler) submit() {
	c.next++
	j := &c.ring[c.next%int64(len(c.ring))]
	est := 100 + (c.next*7919)%3600
	*j = core.Job{ID: c.next, Submit: c.ctx.now, Size: steadyJobSz, Runtime: est, Estimate: est}
	c.s.OnSubmit(c.ctx, j)
}

func (c *steadyCycler) cycle() {
	c.submit()
	c.ctx.finishFirst(c.s)
}

// TestSteadyStateCycleAllocs pins the scheduler hot path at zero
// allocations: once warmed, a submit/start/finish cycle neither sorts
// through an interface nor regrows a queue slice.
func TestSteadyStateCycleAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Scheduler
	}{
		{"easy", NewEASY()},
		{"sjf", NewSJF()},
		{"lxf", NewLXF()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newSteadyCycler(tc.s)
			for i := 0; i < 4*len(c.ring); i++ {
				c.cycle()
			}
			allocs := testing.AllocsPerRun(50, func() {
				for i := 0; i < 64; i++ {
					c.cycle()
				}
			})
			if allocs != 0 {
				t.Fatalf("%v allocations per 64 steady-state cycles, want 0", allocs)
			}
			if q := tc.s.(QueueReporter).Queued(); len(q) != steadyQueued {
				t.Fatalf("queue length drifted to %d, want %d", len(q), steadyQueued)
			}
		})
	}
}
