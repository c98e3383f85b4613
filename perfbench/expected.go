package main

import (
	"math"

	"parsched/internal/metrics"
)

// defaultSeed is the seed the expected results below were recorded
// at: the battery's published seed, used for every workload.
const defaultSeed = 1999

// expectedReport is the simulated outcome of one replay at defaultSeed.
type expectedReport struct {
	jobs, finished, unfinished int
	meanWait, meanBSLD         float64
	utilization                float64
	makespan                   int64
}

var (
	expectedSWF = expectedReport{
		jobs: 1_000_000, finished: 1_000_000, unfinished: 0,
		meanWait: 33.84054300000113, meanBSLD: 1.0840007729055858,
		utilization: 0.6949718095129648, makespan: 122012414,
	}
	expectedLublin = expectedReport{
		jobs: 100_000, finished: 100_000, unfinished: 0,
		meanWait: 46481.03227, meanBSLD: 109.89394424976155,
		utilization: 0.6996704839257138, makespan: 336483131,
	}

	expectedBatteryDigest = "be97254dbda2340bf9fdf484b41199e6bea3b1b424c8fa7e0f63e440b729fdb0"
)

// checkExpected compares a replay's report against the recorded one.
// Floats are compared to a relative 1e-9, so a change that reorders a
// sum still passes while a change in scheduling decisions does not.
func checkExpected(r *result, rep metrics.Report, want expectedReport) {
	got := expectedReport{
		jobs: rep.Jobs, finished: rep.Finished, unfinished: rep.Unfinished,
		meanWait: rep.Wait.Mean, meanBSLD: rep.BSLD.Mean,
		utilization: rep.Utilization, makespan: rep.Makespan,
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }
	if got.jobs != want.jobs || got.finished != want.finished || got.unfinished != want.unfinished ||
		got.makespan != want.makespan || !near(got.meanWait, want.meanWait) ||
		!near(got.meanBSLD, want.meanBSLD) || !near(got.utilization, want.utilization) {
		r.fail("report differs from the expected one at seed %d: got %+v, want %+v", defaultSeed, got, want)
	}
}
